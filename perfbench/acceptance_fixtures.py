"""One-shot wall time of the Monte Carlo acceptance-fixture configs.

    python3 perfbench/acceptance_fixtures.py [--json FILE]

Times, once each, the run_experiment and run_method_comparison calls
behind acceptance criteria 05, 06, 07 and 10, with the configs of
``tests/test_acceptance.py`` copied verbatim.  This is a report, not a
gated workload: one pass takes about ten minutes on two cores.
"""

import argparse
import json
import os
import time

from workloads import describe_env, pinned_env, require_source

BASE_SEED = 0


def fixtures():
    """(criterion, test fixture or test, runner, config), as in the tests."""
    from hmmorder.harness import ExperimentConfig, run_experiment, run_method_comparison

    return [
        ("05", "table2_run", run_experiment, ExperimentConfig(
            scenario="gauss-shift", n_list=(250, 2000), delta=5.0, nu=0.1, dim=1,
            replicates=20, base_seed=BASE_SEED,
        )),
        ("06", "table3_run", run_experiment, ExperimentConfig(
            scenario="gauss-shift", n_list=(1000,), delta=5.0, nu=0.05, dim=1,
            replicates=20, base_seed=BASE_SEED,
        )),
        ("07", "table4_multivariate_run", run_experiment, ExperimentConfig(
            scenario="gauss-shift", n_list=(1000,), delta=5.0, nu=0.1, dim=2,
            replicates=20, base_seed=BASE_SEED,
        )),
        ("07", "table4_max_univariate_run", run_experiment, ExperimentConfig(
            scenario="gauss-shift", n_list=(500,), delta=5.0, nu=0.1, dim=2,
            methods=("operator-max",), replicates=20, base_seed=BASE_SEED,
        )),
        ("10", "test_method_comparison", run_method_comparison, ExperimentConfig(
            scenario="beta3", n_list=(3000,), nu=0.1, replicates=20, base_seed=BASE_SEED,
        )),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", default=None, help="write the timings here")
    args = parser.parse_args()
    os.environ.update(pinned_env())
    require_source()

    rows = []
    for criterion, source, runner, config in fixtures():
        start = time.perf_counter()
        table = runner(config)
        seconds = time.perf_counter() - start
        replicates = sum(len(cell.records) for cell in table.cells)
        errors = sum(rec.error is not None for cell in table.cells for rec in cell.records)
        rows.append({
            "criterion": criterion, "source": source, "runner": runner.__name__,
            "wall_s": seconds, "replicates": replicates, "errors": errors,
        })
        print(f"criterion {criterion} {source}: {seconds:.1f} s, "
              f"{replicates} replicates, {errors} errors", flush=True)
    per_criterion = {}
    for row in rows:
        per_criterion[row["criterion"]] = per_criterion.get(row["criterion"], 0.0) + row["wall_s"]
    total = sum(row["wall_s"] for row in rows)
    print(f"total {total:.1f} s; per criterion " +
          ", ".join(f"{c}: {s:.1f} s" for c, s in per_criterion.items()))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"env": describe_env(), "fixtures": rows,
                       "per_criterion_s": per_criterion, "total_s": total}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
