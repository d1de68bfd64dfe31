"""Replicated Monte Carlo experiments over simulation scenarios.

A configuration spans a grid of sample sizes and estimation methods for
one scenario.  Every replicate simulates one fresh path and runs every
requested estimator on it; seeding is per grid point and per replicate,
so results are reproducible for any degree of parallelism and adding a
grid row never perturbs the others.
"""

import csv
import io
import time
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .estimator import estimate_order, estimate_order_max_univariate
from .gram import DEFAULT_L_MAX
from .kernels import BandwidthRule
from .seriesio import DataError
from .simulate import GAUSSIAN_NOISE, SHIFT_SCENARIOS, get_scenario, simulate
from .spectral import SpectralConfig, moment_matrix, spectral_order

OPERATOR = "operator"
OPERATOR_MAX = "operator-max"
SPECTRAL_PREFIX = "spectral"

#: the operator method against the spectral grid used for comparisons:
#: n_basis in {20, 40, 60} crossed with n_reg in {5, n_basis/2, n_basis-5}
COMPARISON_METHODS = (
    OPERATOR,
    "spectral:20:5",
    "spectral:20:10",
    "spectral:20:15",
    "spectral:40:5",
    "spectral:40:20",
    "spectral:40:35",
    "spectral:60:5",
    "spectral:60:30",
    "spectral:60:55",
)

#: scenarios with a known true order (all benchmark scenarios have three states)
KNOWN_ORDER = 3


@dataclass(frozen=True)
class ExperimentConfig:
    """One scenario crossed with sample sizes and estimation methods.

    Construction rejects a value the run could not use and a noise,
    dimension or delta its scenario contradicts, so a bad config fails
    before any replicate runs.
    """

    scenario: str
    n_list: tuple = (1000,)
    delta: float = 5.0
    nu: float = 0.1
    beta: float | None = None
    dim: int = 1
    noise: str = GAUSSIAN_NOISE
    methods: tuple = (OPERATOR,)
    replicates: int = 20
    base_seed: int = 0
    jobs: int = 1
    l_max: int = DEFAULT_L_MAX

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.l_max < 1:
            raise ValueError("l_max must be >= 1")
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        if not self.n_list or min(self.n_list) < 1:
            raise ValueError("n_list must hold at least one n, each >= 1")
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.methods:
            raise ValueError("methods must not be empty")
        for method in self.methods:
            parse_method(method)
        BandwidthRule(beta=self.beta)  # beta must be positive and finite
        # a scenario that contradicts its noise, dim or delta fails here,
        # so a table never carries a label its data do not have
        try:
            get_scenario(
                self.scenario, noise=self.noise, delta=self.delta, nu=self.nu, dim=self.dim
            )
        except KeyError as exc:
            raise ValueError(exc.args[0]) from exc


def parse_method(method: str):
    """Split a method descriptor into an executable form.

    ``operator`` and ``operator-max`` take no arguments; the spectral
    baseline is written ``spectral:<n_basis>:<n_reg>``.
    """
    if method in (OPERATOR, OPERATOR_MAX):
        return method, None
    parts = method.split(":")
    if parts[0] == SPECTRAL_PREFIX and len(parts) == 3:
        return SPECTRAL_PREFIX, SpectralConfig(n_basis=int(parts[1]), n_reg=int(parts[2]))
    raise ValueError(
        f"unknown method {method!r}; expected 'operator', 'operator-max' "
        f"or 'spectral:<n_basis>:<n_reg>'"
    )


@dataclass(frozen=True)
class ReplicateRecord:
    """One method's result on one replicate.

    ``seconds`` is the wall time of the estimate.  The spectral methods
    of a replicate share one moment matrix, built at the largest
    requested basis size; its build time is charged to the first method
    whose ``n_basis`` equals that size, so the ``seconds`` of the other
    spectral methods cover their SVD and significance rule only.  When
    that build fails, as it does when the largest basis exceeds the
    number of pairs, each spectral method builds and times its own.
    """

    replicate: int
    l_hat: int | None
    tau: float | None
    bandwidth: float | None
    sigma: tuple
    seconds: float
    error: str | None = None


@dataclass(frozen=True, eq=False)
class GridCell:
    """All replicates of one (n, method) grid point; the scenario labels
    are read from the config of the table that holds it."""

    n: int
    method: str
    records: tuple

    @property
    def failed(self) -> bool:
        return any(r.error is not None for r in self.records)

    def counts(self, l_max: int) -> tuple:
        """Counts of selected orders 0..l_max plus an overflow bucket."""
        buckets = [0] * (l_max + 2)
        for rec in self.records:
            if rec.error is not None:
                continue
            if rec.l_hat > l_max:
                buckets[l_max + 1] += 1
            else:
                buckets[rec.l_hat] += 1
        return tuple(buckets)

    def count_of(self, order: int) -> int:
        return sum(1 for r in self.records if r.error is None and r.l_hat == order)

    def mean_seconds(self) -> float:
        ok = [r.seconds for r in self.records if r.error is None]
        return sum(ok) / len(ok) if ok else float("nan")


@dataclass(frozen=True, eq=False)
class ResultTable:
    """The configuration that ran and its grid cells, one per
    (n, method) in ``n_list`` x ``methods`` order.  The scenario labels,
    ``l_max`` and the grid are read from ``config``."""

    config: ExperimentConfig
    cells: tuple

    @property
    def l_max(self) -> int:
        return self.config.l_max

    def cell(self, n: int, method: str) -> GridCell:
        for c in self.cells:
            if c.n == n and c.method == method:
                return c
        raise KeyError(f"no cell for n={n}, method={method!r}")


def _data_seed(config: ExperimentConfig, n: int, replicate: int) -> int:
    """Simulation seed for one replicate of one grid point.

    The method is deliberately excluded: the path is simulated once and
    every method runs on that one series, which pairs the comparisons.
    A named shift scenario draws its own noise family whether or not
    the config spells it, so its key always carries the default noise
    spelling and both spellings simulate the same replicates.
    """
    noise = GAUSSIAN_NOISE if config.scenario in SHIFT_SCENARIOS else config.noise
    key = (
        f"{config.scenario}|delta={config.delta!r}|nu={config.nu!r}"
        f"|dim={config.dim}|noise={noise}|n={n}"
    )
    return (config.base_seed + replicate + zlib.crc32(key.encode())) % 2**63


def _run_method(
    config: ExperimentConfig,
    kind: str,
    spectral_cfg,
    series,
    replicate: int,
    moments=None,
    build_seconds: float = 0.0,
) -> ReplicateRecord:
    """One parsed method on one simulated series; failures are recorded,
    not raised.

    A spectral method takes its moment matrix from ``moments`` when
    given; ``build_seconds``, the time that built it, is added to the
    record's ``seconds``.
    """
    bandwidth = BandwidthRule(beta=config.beta)
    try:
        start = time.perf_counter()
        if kind == SPECTRAL_PREFIX:
            res = spectral_order(series, spectral_cfg, moments=moments)
            l_hat, tau, h, values = res.l_hat, None, None, res.sigma
        else:
            estimator = (
                estimate_order if kind == OPERATOR else estimate_order_max_univariate
            )
            est = estimator(series, bandwidth=bandwidth, l_max=config.l_max)
            l_hat, tau, h, values = est.l_hat, est.tau, est.bandwidth, est.r_values
        sigma = tuple(float(x) for x in values[: config.l_max])
        seconds = time.perf_counter() - start + build_seconds
        return ReplicateRecord(
            replicate=replicate,
            l_hat=l_hat,
            tau=tau,
            bandwidth=h,
            sigma=sigma,
            seconds=seconds,
        )
    except Exception as exc:  # recorded, not fatal
        return ReplicateRecord(
            replicate=replicate,
            l_hat=None,
            tau=None,
            bandwidth=None,
            sigma=(),
            seconds=0.0,
            error=f"{type(exc).__name__}: {exc}",
        )


def _shared_moments(parsed: tuple, series) -> tuple:
    """(moments, seconds): one moment matrix for every spectral method
    of ``parsed``, at the largest requested basis size, and the time its
    build took.  ``(None, 0.0)`` when no method is spectral or the build
    fails; each method then builds on its own and records its own error."""
    sizes = [cfg.n_basis for kind, cfg in parsed if kind == SPECTRAL_PREFIX]
    if not sizes:
        return None, 0.0
    start = time.perf_counter()
    try:
        moments = moment_matrix(series, max(sizes))
    except Exception:  # repeated, and recorded, by every spectral method
        return None, 0.0
    return moments, time.perf_counter() - start


def _run_replicate(args) -> tuple:
    """Simulate the path of one (n, replicate) pair and run every parsed
    method on it; one record per method, in ``config.methods`` order."""
    config, parsed, spec, n, replicate = args
    series, _ = simulate(spec, n, _data_seed(config, n, replicate))
    moments, build_seconds = _shared_moments(parsed, series)
    records = []
    for kind, spectral_cfg in parsed:
        shared = moments if kind == SPECTRAL_PREFIX else None
        # the build is charged once, to the first method of its size
        charged = shared is not None and spectral_cfg.n_basis == len(shared)
        charge = build_seconds if charged else 0.0
        build_seconds -= charge
        records.append(
            _run_method(config, kind, spectral_cfg, series, replicate, shared, charge)
        )
    return tuple(records)


def run_experiment(config: ExperimentConfig) -> ResultTable:
    """Run every replicate of every grid point.

    Replicates execute concurrently up to ``config.jobs``; records are
    regrouped into (n, method) cells in replicate order, so the table
    does not depend on the degree of parallelism.
    """
    spec = get_scenario(
        config.scenario,
        noise=config.noise,
        delta=config.delta,
        nu=config.nu,
        dim=config.dim,
    )
    parsed = tuple(map(parse_method, config.methods))
    tasks = [
        (config, parsed, spec, n, rep)
        for n in config.n_list
        for rep in range(config.replicates)
    ]
    if config.jobs > 1 and len(tasks) > 1:
        # loaded here only: serial runs do not pay for the import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(_run_replicate, tasks, chunksize=1))
    else:
        results = [_run_replicate(t) for t in tasks]
    cells = []
    for i, n in enumerate(config.n_list):
        rows = results[i * config.replicates : (i + 1) * config.replicates]
        for j, method in enumerate(config.methods):
            cells.append(GridCell(n, method, tuple(row[j] for row in rows)))
    return ResultTable(config, tuple(cells))


def run_method_comparison(config: ExperimentConfig) -> ResultTable:
    """Run the operator method against the spectral grid on one scenario."""
    return run_experiment(replace(config, methods=COMPARISON_METHODS))


def success_frequencies(table: ResultTable, order: int = KNOWN_ORDER) -> dict:
    """Fraction of replicates selecting ``order``, per grid point."""
    out = {}
    for cell in table.cells:
        ok = [r for r in cell.records if r.error is None]
        out[(cell.n, cell.method)] = (
            sum(1 for r in ok if r.l_hat == order) / len(ok) if ok else float("nan")
        )
    return out


GRID_COLUMNS = ("scenario", "delta", "nu", "beta", "d", "noise", "n", "method")


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def emit_table(table: ResultTable, fmt: str = "csv", include_timing: bool = True) -> str:
    """Render a result table as CSV (``fmt="csv"``) or markdown (``"md"``).

    Columns: the grid keys, the counts of every selected order from 0 to
    l_max, the overflow bucket, the percentage selecting the true order
    ``KNOWN_ORDER``, and (optionally) mean wall seconds.  Timing can be
    excluded to make the output reproducible byte for byte.

    ``noise`` names the family the data were drawn with: the ``noise``
    of the ``shift`` scenario, the fixed family of a named ``*-shift``
    scenario, and empty for the paper scenarios, which add no noise.
    """
    if fmt not in ("csv", "md"):
        raise ValueError(f"unknown format {fmt!r}")
    config = table.config
    if config.scenario == "shift":
        noise = config.noise
    else:
        noise = SHIFT_SCENARIOS.get(config.scenario, "")
    grid = [
        config.scenario,
        _format_value(config.delta),
        _format_value(config.nu),
        _format_value(config.beta),
        str(config.dim),
        noise,
    ]
    header = list(GRID_COLUMNS)
    header += [f"L{j}" for j in range(table.l_max + 1)]
    header += [f"gt_L{table.l_max}", "pct_true", "failed"]
    if include_timing:
        header.append("mean_seconds")
    rows = []
    for cell in table.cells:
        counts = cell.counts(table.l_max)
        ok = sum(counts)
        pct_str = repr(round(100.0 * cell.count_of(KNOWN_ORDER) / ok, 6)) if ok else ""
        row = [
            *grid,
            str(cell.n),
            cell.method,
            *[str(c) for c in counts],
            pct_str,
            "1" if cell.failed else "0",
        ]
        if include_timing:
            row.append(f"{cell.mean_seconds():.3f}")
        rows.append(row)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def timing_report(table: ResultTable) -> dict:
    """Mean wall seconds per (n, dim, method) grid point."""
    return {
        (cell.n, table.config.dim, cell.method): cell.mean_seconds()
        for cell in table.cells
    }


# ---------------------------------------------------------------------------
# Flat key/value configuration files
# ---------------------------------------------------------------------------

_INT_KEYS = {"replicates", "base_seed", "jobs", "l_max"}
_FLOAT_KEYS = {"delta", "nu", "beta"}


class ConfigError(ValueError):
    """A configuration file could not be interpreted."""


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse a flat ``key = value`` configuration.

    Each line is split at its first ``=``; a line without one is a
    ``ConfigError``, so ``key: value`` is refused while a value such as
    ``spectral:20:10`` keeps its colons.  ``#`` starts a comment.
    Lists are comma separated, and a key given twice is a
    ``ConfigError``.  Recognized keys: scenario, delta, nu,
    beta, d, n_list, noise, method, replicates, base_seed, jobs, l_max;
    ``method`` lists ``parse_method`` descriptors.  A value that does
    not parse, or a configuration that ``ExperimentConfig`` refuses,
    raises ``ConfigError``.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key = key.strip()
        if key in raw:
            raise ConfigError(f"line {lineno}: key {key!r} given twice")
        raw[key] = value.strip()
    if "scenario" not in raw:
        raise ConfigError("missing required key 'scenario'")
    kwargs: dict = {"scenario": raw.pop("scenario")}
    try:
        for key, value in raw.items():
            if key == "n_list":
                kwargs["n_list"] = tuple(int(v) for v in value.replace(",", " ").split())
            elif key == "method":
                kwargs["methods"] = tuple(v.strip() for v in value.split(",") if v.strip())
            elif key == "noise":
                kwargs["noise"] = value
            elif key == "d":
                kwargs["dim"] = int(value)
            elif key in _INT_KEYS:
                kwargs[key] = int(value)
            elif key in _FLOAT_KEYS:
                kwargs[key] = float(value)
            else:
                raise ConfigError(f"unknown configuration key {key!r}")
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ExperimentConfig:
    """Parse a configuration file; one that is not UTF-8 is a ``DataError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: cannot read: {exc}") from None
    return parse_config_text(text)
