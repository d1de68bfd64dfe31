"""One workload run in a fresh process; prints one JSON line.

Set-up (imports, input simulation, one warm-up call on the first
input cut to WARMUP_N pairs) is timed from the first statement of this
file.  With ``--setup-only`` the process
stops there.  Otherwise it runs a closed loop, one caller making
back-to-back calls, for ``--seconds``: untraced, or with ``--trace 1``
half untraced and half traced on the same inputs, which gives the
tracing overhead.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import (  # noqa: E402
    TRUE_ORDER,
    WARMUP_N,
    WORKLOADS,
    compare,
    describe_env,
    load_reference,
    require_source,
)


def closed_loop(workload, inputs, seconds: float) -> tuple:
    """Call the workload back to back until ``seconds`` have passed.

    Returns per-call seconds, (input index, output) per call, and the
    wall time of the whole loop.  No call starts after the deadline.
    """
    times, outputs = [], []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        k = i % len(inputs)
        t = time.perf_counter()
        try:
            out = workload.run(inputs[k])
        except Exception as exc:  # a raising call is a failed operation
            out = {"error": f"{type(exc).__name__}: {exc}"}
        now = time.perf_counter()
        times.append(now - t)
        outputs.append((k, out))
        i += 1
        if now >= deadline:
            return times, outputs, now - start


def tail(values: list) -> float:
    """Highest order statistic with min(10, n // 4) values above it:
    the highest percentile with ten samples above it once n >= 40, the
    upper quartile for shorter runs."""
    ordered = sorted(values)
    return ordered[len(ordered) - 1 - min(10, len(ordered) // 4)]


def check(outputs, keys, reference) -> dict:
    failed, worst, selected, results = 0, 0.0, 0, 0
    for k, out in outputs:
        mismatch, dev = compare(out, reference.get(keys[k]))
        failed += mismatch
        worst = max(worst, dev)
        for res in out.values():
            if isinstance(res, dict):
                results += 1
                selected += res.get("l_hat") == TRUE_ORDER
    return {
        "attempted": len(outputs),
        "failed": failed,
        "r_rel_dev_max": worst,
        "true_order_frac": selected / results if results else 0.0,
    }


def traced_run(workload, inputs, seconds: float) -> tuple:
    """Half the time untraced, half traced on the same inputs.

    Returns the per-layer metrics, every call's output, and the spans
    and counts to write out.
    """
    from tracing import Tracer, layer_names

    names = layer_names()
    plain, outputs, _ = closed_loop(workload, inputs, seconds / 2)
    tracer = Tracer()
    with tracer.installed():
        traced, traced_outputs, _ = closed_loop(workload, inputs, seconds / 2)
    ops = len(traced)
    selfs = tracer.self_times()
    layers = {}
    for name in names:
        total, calls = selfs.get(name, (0.0, 0))
        layers[f"{name}.self_s"] = (total / ops, "s/op", calls)
        layers[f"{name}.calls"] = (calls / ops, "1/op", ops)
    counts = tracer.counts
    layers["kernels.gram_entries"] = (counts["kernels.gram_entries"] / ops, "1/op", ops)
    layers["gram.factor_bytes"] = (counts["gram.factor_bytes"] / ops, "B/op", ops)
    layers["gram.svd_dim"] = (counts["gram.svd_dim"], "count", ops)
    layers["harness.replicates"] = (counts["harness.replicates"], "count", ops)
    layers["harness.errors"] = (counts["harness.errors"], "count", ops)
    plain_p50 = statistics.median(plain)
    layers["trace.overhead_frac"] = (
        (statistics.median(traced) - plain_p50) / plain_p50,
        "ratio",
        ops,
    )
    spans = {"ops": ops, "counts": dict(counts), "spans": tracer.spans}
    return layers, outputs + traced_outputs, spans


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    n = args.n or workload.n
    require_source()
    keys = workload.input_keys(args.seed)
    inputs = [workload.make_input(key, n) for key in keys]
    workload.run(workload.make_input(keys[0], WARMUP_N))
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    reference = load_reference(args.workload, n)
    env = describe_env()
    result = {"workload": args.workload, "seed": args.seed, "n": n, "env": env}
    if not args.trace:
        times, outputs, wall = closed_loop(workload, inputs, args.seconds)
        result["end_to_end"] = {
            "estimate_p50_s": (statistics.median(times), "s", len(times)),
            "estimate_tail_s": (tail(times), "s", len(times)),
            # one result per method: one replicate of each method per
            # run_experiment call, one estimate per estimate_order call
            "replicates_per_s": (sum(len(out) for _, out in outputs) / wall, "1/s", len(times)),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB",
                1,
            ),
            "setup_s": (setup_s, "s", 1),
        }
    else:
        result["per_layer"], outputs, spans = traced_run(workload, inputs, args.seconds)
        args.out.mkdir(parents=True, exist_ok=True)
        spans_file = args.out / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps({**result, **spans}, indent=1))
        result["spans_file"] = str(spans_file)
    result["check"] = check(outputs, keys, reference)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
