"""Repeat benchmark runs over several seeds and report their spread.

    python3 perfbench/prove.py --seeds 10 --first-seed 0 [--workload W,...] [--json FILE]

Runs ``run.py`` once per (seed, workload), seeds in the outer loop, and
prints for every end-to-end metric the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
``(q3 - q1) / median`` against the bound in BENCHMARK.json.  A spread
counts as steady below a third of its bound; ``setup_s`` is reported
but has no spread requirement.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import HERE, ROOT, WORKLOADS, describe_env, pinned_env, require_source


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--json", default=None, help="write the runs and summary here")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    runs = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            cmd = [
                sys.executable, str(HERE / "run.py"),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[name].append({"seed": seed, **result})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"seed {seed} {name} correct={result['correct']} {values}", flush=True)

    summary = {}
    steady = True
    for name in names:
        summary[name] = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs[name]]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            ok = metric == "setup_s" or spread < bound / 3
            steady &= ok and all(r["correct"] for r in runs[name])
            summary[name][metric] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            }
            print(
                f"{name:28s} {metric:18s} median={median:.6g} q1={q1:.6g} q3={q3:.6g} "
                f"spread={spread:.4f} bound/3={bound / 3:.4f} {'ok' if ok else 'WIDE'}"
            )
    if args.json:
        os.environ.update(pinned_env())
        require_source()
        out = {
            "env": describe_env(),
            "run_seconds": bench["run_seconds"],
            "seeds": seeds,
            "summary": summary,
            "runs": runs,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
