"""Order estimation: tail statistics, threshold rules and the counting
estimator.

The number of hidden states is estimated as the number of tail
statistics

    r_l = sqrt(sigma_l^2 + sigma_{l+1}^2 + ...)

exceeding a threshold tau.  The default tau is the sample-size driven
rule n**(-1/2) * h**(-d) * 10**(1-d); a theoretical rule with explicit
constants (kernel norm, overestimation level alpha, mixing time) is
also provided.
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
    kernel_l2_norm_sq,
    select_bandwidth,
)
from .series import CIRCULAR, ObservedSeries

PRACTICAL = "practical"
THEORETICAL = "theoretical"
EXPLICIT = "explicit"


@dataclass(frozen=True)
class ThresholdRule:
    """How to pick the cutoff applied to the tail statistics."""

    mode: str = PRACTICAL
    alpha: float | None = None
    t_mix: float | None = None
    kernel_l2_sq: float | None = None
    tau: float | None = None

    def __post_init__(self):
        if self.mode not in (PRACTICAL, THEORETICAL, EXPLICIT):
            raise ValueError(f"unknown threshold mode {self.mode!r}")
        if self.mode == THEORETICAL:
            if self.alpha is None or self.t_mix is None:
                raise ValueError("theoretical mode needs alpha and t_mix")
            if not 0.0 < self.alpha < 1.0:
                raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
            if self.t_mix < 1.0:
                raise ValueError("t_mix must be >= 1")
        if self.mode == EXPLICIT and not (self.tau is not None and self.tau > 0):
            raise ValueError("explicit mode needs tau > 0")

    @classmethod
    def practical(cls) -> "ThresholdRule":
        return cls(mode=PRACTICAL)

    @classmethod
    def theoretical(
        cls, alpha: float, t_mix: float, kernel_l2_sq: float | None = None
    ) -> "ThresholdRule":
        return cls(mode=THEORETICAL, alpha=alpha, t_mix=t_mix, kernel_l2_sq=kernel_l2_sq)

    @classmethod
    def explicit(cls, tau: float) -> "ThresholdRule":
        return cls(mode=EXPLICIT, tau=tau)

    def resolve(self, n: int, h: float, d: int, kernel: KernelSpec | None = None) -> float:
        if self.mode == EXPLICIT:
            return float(self.tau)
        if self.mode == PRACTICAL:
            return practical_threshold(n, h, d)
        l2 = self.kernel_l2_sq
        if l2 is None:
            if kernel is None:
                raise ValueError("theoretical mode needs kernel_l2_sq or a kernel")
            l2 = kernel_l2_norm_sq(kernel)
        return theoretical_threshold(
            ThresholdRule(mode=THEORETICAL, alpha=self.alpha, t_mix=self.t_mix, kernel_l2_sq=l2),
            n,
            h,
            d,
        )


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


def theoretical_threshold(rule: ThresholdRule, n: int, h: float, d: int) -> float:
    """Threshold with explicit overestimation-control constants.

    tau = n**(-1/2) * sqrt((n+1)/n * C1) + n**(-1/2) * h**(-d) * C2 with
    C1 = 36 * ||K||_2**(4d) * ln(1/alpha) * t_mix and
    C2 = ||K||_2**(2d) * sqrt(1 + 8 * t_mix).
    """
    if rule.mode != THEORETICAL:
        raise ValueError("rule must be in theoretical mode")
    if rule.kernel_l2_sq is None:
        raise ValueError("theoretical threshold needs kernel_l2_sq")
    l2_sq = rule.kernel_l2_sq
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
        beta = BandwidthRule.default_for(d).beta
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
    kernel: str | KernelSpec | CustomKernel | None,
    bandwidth: BandwidthRule | float | None,
):
    if isinstance(kernel, CustomKernel):
        if kernel.dim != series.dim:
            raise ValueError(
                f"kernel dimension {kernel.dim} does not match series ({series.dim})"
            )
        if bandwidth is None:
            return kernel
        h = (
            select_bandwidth(bandwidth, series)
            if isinstance(bandwidth, BandwidthRule)
            else float(bandwidth)
        )
        return replace(kernel, bandwidth=h)
    if kernel is None:
        family = VONMISES if series.kind == CIRCULAR else GAUSSIAN
    elif isinstance(kernel, KernelSpec):
        family = kernel.family
        if bandwidth is None:
            return kernel
    else:
        family = kernel
    if series.kind == CIRCULAR and family != VONMISES:
        raise ValueError("circular data require the von Mises kernel")
    if family == VONMISES and series.kind != CIRCULAR:
        raise ValueError("the von Mises kernel requires circular data")
    if bandwidth is None:
        bandwidth = BandwidthRule.default_for(series.dim, family)
    if isinstance(bandwidth, BandwidthRule):
        h = select_bandwidth(bandwidth, series)
    else:
        h = float(bandwidth)
    return KernelSpec(family=family, bandwidth=h, dim=series.dim)


def estimate_order(
    series: ObservedSeries,
    kernel: str | KernelSpec | None = None,
    bandwidth: BandwidthRule | float | None = None,
    threshold: ThresholdRule | float | None = None,
    l_max: int = DEFAULT_L_MAX,
) -> OrderEstimate:
    """Estimate the number of hidden states of a series.

    Parameters
    ----------
    series : ObservedSeries
        Observations; circular series require the von Mises kernel.
    kernel : kernel family name, KernelSpec or None
        None picks the family from the data kind (Gaussian for linear
        data, von Mises for angles).  A KernelSpec pins the bandwidth;
        a family name resolves the bandwidth from ``bandwidth``.
    bandwidth : BandwidthRule, float or None
        None applies the default schedule for the dimension.
    threshold : ThresholdRule, float or None
        None applies the practical rule; a float is an explicit cutoff.
    l_max : int
        Number of tail statistics inspected.  If every one of them
        exceeds the threshold the estimate is flagged as truncated and
        is a lower bound.
    """
    spec = _resolve_kernel(series, kernel, bandwidth)
    if threshold is None:
        threshold = ThresholdRule.practical()
    elif not isinstance(threshold, ThresholdRule):
        threshold = ThresholdRule.explicit(float(threshold))
    n = series.n_pairs
    l_eff = min(l_max, n)
    spectrum = estimate_operator_matrix(series, spec, l_max=l_eff)
    r_values = tail_stats(spectrum, l_max=l_eff)
    tau = threshold.resolve(n, spec.bandwidth, series.dim, spec)
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
    kernel: str | KernelSpec | None = None,
    bandwidth: BandwidthRule | float | None = None,
    threshold: ThresholdRule | float | None = None,
    l_max: int = DEFAULT_L_MAX,
) -> OrderEstimate:
    """Maximum of the univariate order estimates over the coordinates.

    Each coordinate is estimated with the univariate threshold and its
    own automatic bandwidth scale, but with the bandwidth exponent of
    the parent dimension, beta = 1/(4 + 2d); this matches the reference
    experiments, where the per-coordinate exponent is inherited from
    the multivariate design rather than reset to 1/6.
    """
    if series.dim < 2:
        raise ValueError("max-of-univariate estimation needs dim >= 2")
    if bandwidth is None:
        bandwidth = BandwidthRule(beta=1.0 / (4.0 + 2.0 * series.dim), kappa=None)
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
