"""Command line interface.

Subcommands: ``estimate`` (order selection on a data file),
``simulate`` (write a synthetic series), ``experiment`` (replicated
grid from a config file) and ``compare-spectral`` (operator vs spectral
baseline).  Exit codes: 0 success, 2 configuration error, 3 data error.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .estimator import estimate_order, estimate_order_max_univariate
from .harness import (
    emit_table,
    load_config,
    run_experiment,
    run_method_comparison,
)
from .gram import DEFAULT_L_MAX
from .kernels import BandwidthRule
from .seriesio import (
    LAYOUTS,
    DataError,
    DatasetDescriptor,
    export_diagnostics,
    load_series,
    save_series,
)
from .simulate import get_scenario, simulate

CONFIG_ERROR = 2
DATA_ERROR = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmmorder",
        description="Order selection for nonparametric hidden Markov models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate the order of a series from a file")
    est.add_argument("--input", required=True, help="data file path")
    est.add_argument("--layout", choices=LAYOUTS, default="columns")
    est.add_argument("--dim", type=int, default=1)
    est.add_argument("--beta", type=float, default=None,
                     help="bandwidth exponent (default per dimension)")
    est.add_argument("--kappa", default="auto",
                     help="bandwidth scale: 'auto' or a positive number")
    est.add_argument("--tau", default="auto",
                     help="threshold: 'auto' (practical rule) or a positive number")
    est.add_argument("--lmax", type=int, default=DEFAULT_L_MAX)
    est.add_argument("--stride", type=int, default=1,
                     help="keep every k-th observation before pairing")
    est.add_argument("--max-univariate", action="store_true",
                     help="use the max of per-coordinate estimates (dim >= 2)")
    est.add_argument("--diagnostics", default=None, metavar="OUT.csv",
                     help="write the tail statistics table here")

    sim = sub.add_parser("simulate", help="write a simulated series to a file")
    sim.add_argument("--scenario", required=True,
                     help="beta3, gauss3, vm3, gauss-shift, student-shift, "
                          "laplace-shift or exp-shift")
    sim.add_argument("--delta", type=float, default=5.0)
    sim.add_argument("--nu", type=float, default=0.1)
    sim.add_argument("--n", type=int, required=True, help="number of consecutive pairs")
    sim.add_argument("--dim", type=int, default=1)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)

    exp = sub.add_parser("experiment", help="run a replicated experiment grid")
    exp.add_argument("--config", required=True)
    exp.add_argument("--out", required=True)
    exp.add_argument("--format", choices=("csv", "md"), default="csv")
    exp.add_argument("--jobs", type=int, default=None,
                     help="worker processes (default: the config's jobs)")

    cmp_ = sub.add_parser("compare-spectral",
                          help="operator method vs the spectral baseline grid")
    cmp_.add_argument("--config", required=True)
    cmp_.add_argument("--out", required=True)
    cmp_.add_argument("--format", choices=("csv", "md"), default="csv")
    cmp_.add_argument("--jobs", type=int, default=None,
                      help="worker processes (default: the config's jobs)")
    return parser


def _cmd_estimate(args) -> int:
    desc = DatasetDescriptor(path=args.input, layout=args.layout, dim=args.dim, stride=args.stride)
    series = load_series(desc)
    kappa = None if args.kappa == "auto" else float(args.kappa)
    bandwidth = BandwidthRule(beta=args.beta, kappa=kappa)
    threshold = None if args.tau == "auto" else float(args.tau)
    estimator = estimate_order_max_univariate if args.max_univariate else estimate_order
    estimate = estimator(series, bandwidth=bandwidth, threshold=threshold, l_max=args.lmax)
    print(f"L_hat = {estimate.l_hat}")
    if estimate.truncated:
        print(f"note: all {estimate.l_max} inspected statistics exceed the "
              f"threshold; the estimate is a lower bound", file=sys.stderr)
    if args.diagnostics:
        export_diagnostics(estimate, args.diagnostics)
    return 0


def _cmd_simulate(args) -> int:
    spec = get_scenario(args.scenario, delta=args.delta, nu=args.nu, dim=args.dim)
    series, _ = simulate(spec, args.n, args.seed)
    save_series(series, args.out)
    return 0


def _cmd_experiment(args, compare: bool) -> int:
    config = load_config(args.config)
    if args.jobs is not None:
        config = replace(config, jobs=args.jobs)
    out = Path(args.out)
    if out.is_dir() or not out.parent.is_dir():  # before the grid, which can take minutes
        raise DataError(f"{args.out}: not a file in an existing directory")
    table = run_method_comparison(config) if compare else run_experiment(config)
    # timing is excluded so identical configurations produce identical bytes
    out.write_text(emit_table(table, fmt=args.format, include_timing=False), encoding="utf-8")
    return 0


def main(argv=None) -> int:
    """Run one subcommand; the only place an exception becomes an exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "estimate":
            return _cmd_estimate(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_experiment(args, compare=args.command == "compare-spectral")
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except OSError as exc:
        # a file named on the command line that cannot be read or written
        if exc.filename is None:
            raise
        print(f"data error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return DATA_ERROR
    except (ValueError, KeyError) as exc:  # ConfigError is a ValueError
        print(f"configuration error: {exc}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
