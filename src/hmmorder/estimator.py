"""Order estimation: tail statistics, threshold rules and the counting
estimator.

The number of hidden states is estimated as the number of tail
statistics

    r_l = sqrt(sigma_l^2 + sigma_{l+1}^2 + ...)

exceeding a threshold tau.  The default tau is the sample-size driven
rule n**(-1/2) * h**(-d) * 10**(1-d); a theoretical rule with explicit
constants (overestimation level alpha, mixing time, and the norm of
the kernel in use) is also provided.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .gram import DEFAULT_L_MAX, SingularSpectrum, estimate_operator_matrix
from .kernels import (
    GAUSSIAN,
    VONMISES,
    BandwidthRule,
    CustomKernel,
    KernelSpec,
    default_beta,
    kernel_l2_norm_sq,
    select_bandwidth,
)
from .series import CIRCULAR, ObservedSeries


@dataclass(frozen=True)
class ThresholdRule:
    """Constants of the theoretical threshold: overestimation level
    ``alpha`` and mixing time ``t_mix``.  The kernel norm comes from
    the kernel in use."""

    alpha: float
    t_mix: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.t_mix < 1.0:
            raise ValueError("t_mix must be >= 1")


@dataclass(frozen=True, eq=False)
class OrderEstimate:
    """Selected order with the diagnostics behind it."""

    l_hat: int
    r_values: np.ndarray
    tau: float
    bandwidth: float
    n_pairs: int
    dim: int
    kernel_family: str
    method: str = "multivariate"
    truncated: bool = False
    per_coordinate: tuple = ()

    @property
    def l_max(self) -> int:
        return len(self.r_values)


def tail_stats(spectrum: SingularSpectrum, l_max: int = DEFAULT_L_MAX) -> np.ndarray:
    """Tail statistics r_1..r_{l_max} from a singular spectrum.

    r_l is the square root of the total squared singular mass from index
    l onward; the Frobenius identity supplies the tail without a full
    decomposition.  Requires l_max <= (number of stored values) + 1.
    """
    sigma = spectrum.sigma
    if l_max > sigma.size + 1:
        raise ValueError(
            f"l_max={l_max} needs at least {l_max - 1} stored singular values, "
            f"have {sigma.size}"
        )
    head = np.concatenate([[0.0], np.cumsum(sigma[: l_max - 1] ** 2)])
    return np.sqrt(np.maximum(0.0, spectrum.frob_sq - head))


def practical_threshold(n: int, h: float, d: int) -> float:
    """Sample-size driven threshold n**(-1/2) * h**(-d) * 10**(1-d)."""
    if n < 1 or h <= 0 or d < 1:
        raise ValueError("need n >= 1, h > 0, d >= 1")
    return n**-0.5 * h ** (-d) * 10.0 ** (1 - d)


def theoretical_threshold(rule: ThresholdRule, n: int, kernel) -> float:
    """Threshold with explicit overestimation-control constants.

    tau = n**(-1/2) * sqrt((n+1)/n * C1) + n**(-1/2) * h**(-d) * C2 with
    C1 = 36 * ||K||_2**(4d) * ln(1/alpha) * t_mix and
    C2 = ||K||_2**(2d) * sqrt(1 + 8 * t_mix).  h and d are the
    ``bandwidth`` and ``dim`` of ``kernel`` (a KernelSpec or a
    CustomKernel), and ||K||_2**2 is ``kernel_l2_norm_sq(kernel)``.
    """
    h, d = kernel.bandwidth, kernel.dim
    l2_sq = kernel_l2_norm_sq(kernel)
    c1 = 36.0 * l2_sq ** (2 * d) * math.log(1.0 / rule.alpha) * rule.t_mix
    c2 = l2_sq**d * math.sqrt(1.0 + 8.0 * rule.t_mix)
    return n**-0.5 * math.sqrt((n + 1) / n * c1) + n**-0.5 * h ** (-d) * c2


def consistency_schedule(
    n: int, d: int, beta: float | None = None, kappa: float = 1.0
) -> tuple[float, float]:
    """Overestimation level and bandwidth schedule (alpha_n, h_n).

    h_n = kappa * n**(-beta) with the default beta of the dimension, and
    ln(1/alpha_n) = 1/h_n**(2d).  The exponent must satisfy
    0 < beta < 1/(2d) for the estimator to be consistent.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if beta is None:
        beta = default_beta(d)
    if not 0.0 < beta < 1.0 / (2.0 * d):
        raise ValueError(
            f"beta={beta} outside the consistency range (0, {1.0 / (2.0 * d)}) for d={d}"
        )
    h_n = kappa * n ** (-beta)
    alpha_n = math.exp(-1.0 / h_n ** (2 * d)) if h_n ** (2 * d) > 1e-300 else 0.0
    return alpha_n, h_n


def count_exceedances(r_values: np.ndarray, tau: float) -> int:
    """Number of tail statistics strictly above the threshold."""
    return int(np.sum(np.asarray(r_values) > tau))


def _resolve_kernel(
    series: ObservedSeries,
    kernel: CustomKernel | None,
    bandwidth: BandwidthRule | float | None,
):
    """The kernel an estimate runs with.  The data kind alone picks the
    built-in family: von Mises for a circular series, Gaussian
    otherwise."""
    if kernel is not None:
        if not isinstance(kernel, CustomKernel):
            raise ValueError(f"kernel must be a CustomKernel or None, got {kernel!r}")
        if kernel.dim != series.dim:
            raise ValueError(
                f"kernel dimension {kernel.dim} does not match series ({series.dim})"
            )
        if bandwidth is None:
            return kernel
    if bandwidth is None:
        bandwidth = BandwidthRule()
    if isinstance(bandwidth, BandwidthRule):
        h = select_bandwidth(bandwidth, series)
    else:
        h = float(bandwidth)
    if kernel is not None:
        return replace(kernel, bandwidth=h)
    family = VONMISES if series.kind == CIRCULAR else GAUSSIAN
    return KernelSpec(family=family, bandwidth=h, dim=series.dim)


def _resolve_threshold(threshold, n: int, kernel) -> float:
    """None: the practical rule; a ThresholdRule: the theoretical rule;
    a positive number: that cutoff."""
    if threshold is None:
        return practical_threshold(n, kernel.bandwidth, kernel.dim)
    if isinstance(threshold, ThresholdRule):
        return theoretical_threshold(threshold, n, kernel)
    tau = float(threshold)
    if not tau > 0:
        raise ValueError(f"an explicit threshold must be > 0, got {threshold!r}")
    return tau


def estimate_order(
    series: ObservedSeries,
    kernel: CustomKernel | None = None,
    bandwidth: BandwidthRule | float | None = None,
    threshold: ThresholdRule | float | None = None,
    l_max: int = DEFAULT_L_MAX,
) -> OrderEstimate:
    """Estimate the number of hidden states of a series.

    Parameters
    ----------
    series : ObservedSeries
        Observations, linear or circular.
    kernel : CustomKernel or None
        None is the built-in kernel of the data kind: von Mises for a
        circular series, Gaussian otherwise.  A CustomKernel keeps its
        own bandwidth unless ``bandwidth`` is given.  Any other value
        raises ``ValueError``.
    bandwidth : BandwidthRule, float or None
        None is ``BandwidthRule()``, the default schedule of
        ``select_bandwidth``, whose scale depends on the data kind
        only; a float is the bandwidth itself.
    threshold : ThresholdRule, float or None
        None applies the practical rule, a ThresholdRule the
        theoretical rule with the norm of the kernel in use, and a
        float > 0 is an explicit cutoff.
    l_max : int
        Number of tail statistics inspected.  If every one of them
        exceeds the threshold the estimate is flagged as truncated and
        is a lower bound; must be >= 1.
    """
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    spec = _resolve_kernel(series, kernel, bandwidth)
    n = series.n_pairs
    tau = _resolve_threshold(threshold, n, spec)
    l_eff = min(l_max, n)
    spectrum = estimate_operator_matrix(series, spec, l_max=l_eff)
    r_values = tail_stats(spectrum, l_max=l_eff)
    l_hat = count_exceedances(r_values, tau)
    return OrderEstimate(
        l_hat=l_hat,
        r_values=r_values,
        tau=tau,
        bandwidth=spec.bandwidth,
        n_pairs=n,
        dim=series.dim,
        kernel_family=spec.family,
        method="multivariate",
        truncated=l_hat == l_eff,
    )


def estimate_order_max_univariate(
    series: ObservedSeries,
    kernel: CustomKernel | None = None,
    bandwidth: BandwidthRule | float | None = None,
    threshold: ThresholdRule | float | None = None,
    l_max: int = DEFAULT_L_MAX,
) -> OrderEstimate:
    """Maximum of the univariate order estimates over the coordinates.

    Each coordinate is estimated with the univariate threshold and its
    own automatic bandwidth scale, but a rule that leaves beta unset
    gets the exponent of the parent dimension, beta = 1/(4 + 2d); this
    matches the reference experiments, where the per-coordinate
    exponent is inherited from the multivariate design rather than
    reset to 1/6.
    """
    if series.dim < 2:
        raise ValueError("max-of-univariate estimation needs dim >= 2")
    if bandwidth is None:
        bandwidth = BandwidthRule()
    if isinstance(bandwidth, BandwidthRule) and bandwidth.beta is None:
        bandwidth = replace(bandwidth, beta=default_beta(series.dim))
    per_coord = tuple(
        estimate_order(
            series.coordinate(j),
            kernel=kernel,
            bandwidth=bandwidth,
            threshold=threshold,
            l_max=l_max,
        )
        for j in range(series.dim)
    )
    best = max(per_coord, key=lambda e: e.l_hat)
    return OrderEstimate(
        l_hat=best.l_hat,
        r_values=best.r_values,
        tau=best.tau,
        bandwidth=best.bandwidth,
        n_pairs=best.n_pairs,
        dim=series.dim,
        kernel_family=best.kernel_family,
        method="max-univariate",
        truncated=any(e.truncated for e in per_coord),
        per_coordinate=per_coord,
    )
