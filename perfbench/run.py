"""Run hmmorder benchmark workloads and print their metrics.

    python3 perfbench/run.py --workload estimate-d1-n2000 --seed 0 --seconds 30 --trace 0

``--workload`` takes one name, a comma-separated list or ``all``.
Every workload run is a fresh process with BLAS threads pinned before
numpy is imported, so peak memory and set-up time belong to that
workload alone.  Set-up is measured in SETUP_REPEATS fresh processes
and reported as their median.  The metrics are printed by name with
unit and sample count; the last line is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 1`` the metrics are the per-layer ones and the spans go to a
JSON file under ``--out``.  The exit code is non-zero when an output
differs from its recorded reference.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import HERE, WORKLOADS, pinned_env, require_source

SETUP_REPEATS = 3
#: every run must end within 180 s; leave room for interpreter exit
DEADLINE_S = 170.0


def call_worker(cmd: list, env: dict, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        sys.exit("perfbench: out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: worker exceeded the {DEADLINE_S:.0f} s budget")
    if proc.returncode != 0:
        sys.exit(f"perfbench: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, args, env: dict, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(args.out),
    ]
    if args.n:
        cmd += ["--n", str(args.n)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(call_worker(cmd + ["--setup-only"], env, deadline)["setup_s"])
    result = call_worker(cmd, env, deadline)
    if not args.trace:
        setups.append(result["end_to_end"]["setup_s"][0])
        result["end_to_end"]["setup_s"] = (statistics.median(setups), "s", len(setups))
    return result


def report(result: dict) -> dict:
    """Print one workload's metrics; return them as name -> value/unit."""
    name = result["workload"]
    env = " ".join(f"{k}={v}" for k, v in result["env"].items())
    print(f"[{name}] seed={result['seed']} n={result['n']} {env}")
    metrics = {}
    for metric, (value, unit, samples) in result.get("end_to_end", result.get("per_layer")).items():
        print(f"[{name}] {metric} = {value:.6g} {unit} (samples={samples})")
        metrics[metric] = {"value": value, "unit": unit}
    chk = result["check"]
    print(
        f"[{name}] check: attempted={chk['attempted']} failed={chk['failed']} "
        f"failed_frac={chk['failed'] / chk['attempted']:.6g} "
        f"r_rel_dev_max={chk['r_rel_dev_max']:.3g} "
        f"true_order_frac={chk['true_order_frac']:.6g}"
    )
    if "spans_file" in result:
        print(f"[{name}] spans written to {result['spans_file']}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, help="name, a,b,c or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, default=None, help="override every workload's n")
    parser.add_argument("--out", type=Path, default=HERE / "out", help="spans directory")
    args = parser.parse_args()

    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    require_source()

    deadline = time.monotonic() + DEADLINE_S * len(names)
    env = pinned_env()
    results = [run_workload(name, args, env, deadline) for name in names]
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for metric, entry in report(result).items():
            metrics[prefix + metric] = entry
    attempted = sum(r["check"]["attempted"] for r in results)
    failed = sum(r["check"]["failed"] for r in results)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
