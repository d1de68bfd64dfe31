"""Record the reference outputs every benchmark run is checked against.

    python3 perfbench/record_reference.py [workload ...]

For each workload, runs every input of its pool once, at the
workload's n and at the smoke-test n, and writes
``perfbench/reference/<workload>.json``.  Re-record only when a change
is meant to alter the estimator's outputs, and say so in CHANGES.md.
"""

import json
import os
import sys

from workloads import SMOKE_N, WORKLOADS, describe_env, pinned_env, reference_path, require_source


def main(argv: list) -> int:
    os.environ.update(pinned_env())
    require_source()
    names = argv or list(WORKLOADS)
    for name in names:
        workload = WORKLOADS[name]
        by_n = {}
        for n in (workload.n, SMOKE_N):
            by_n[str(n)] = {
                key: workload.run(workload.make_input(key, n)) for key in workload.pool_keys()
            }
        path = reference_path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"env": describe_env(), "by_n": by_n}, indent=1) + "\n")
        print(f"{name}: {len(workload.pool_keys())} inputs x n in {sorted(by_n)} -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
