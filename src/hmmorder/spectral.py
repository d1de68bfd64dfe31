"""Competing spectral order estimator.

Univariate data are mapped to [0, 1] and projected on a trigonometric
basis to form the moment matrix

    N[k, l] = (1/n) * sum_t phi_k(y_t) * phi_l(y_{t+1}),

and the order is the length of the leading run of singular values that
are "significant": larger than ``TAU_FACTOR`` = 1.5 times the value
predicted by a straight line fitted through the smallest ``n_reg``
singular values against their index.

The basis is the cosine rows of ``gram.harmonics`` at ``pi * y``, the
angle-addition recurrence the von Mises features share, whose error
grows linearly in k.  The moment matrix is the transpose of
``gram.pair_moments`` over the basis, the same walk over the pairs as
the operator estimator's pair product: only the features differ.

``moment_matrix`` is the one builder, and the one place the input is
checked: univariate data first, then a basis no larger than the number
of pairs.  It maps the values onto [0, 1] only when they fall outside.
phi_k does not depend on M, so the moment matrix for a basis of size
M is the leading M x M block of the one for any larger basis:
``spectral_order`` takes that block through ``moments=``, and the
harness shares one matrix, built at the largest requested basis,
between all spectral methods of a replicate.
"""

from dataclasses import dataclass

import numpy as np

from .gram import build_selectors, harmonics, pair_moments
from .series import ObservedSeries

#: a singular value is significant above this multiple of the fitted line
TAU_FACTOR = 1.5


@dataclass(frozen=True)
class SpectralConfig:
    """Basis size and the number of smallest singular values the
    significance line is fitted through."""

    n_basis: int
    n_reg: int

    def __post_init__(self):
        if self.n_basis < 1:
            raise ValueError("n_basis must be >= 1")
        if not 1 <= self.n_reg <= self.n_basis:
            raise ValueError("need 1 <= n_reg <= n_basis")
        if self.n_reg < 2:
            raise ValueError("the regression needs at least two points (n_reg >= 2)")


@dataclass(frozen=True, eq=False)
class SpectralResult:
    """Selected order plus the spectrum and the fitted reference line."""

    l_hat: int
    sigma: np.ndarray
    fitted: np.ndarray
    significant: np.ndarray
    config: SpectralConfig


def basis_matrix(values: np.ndarray, n_basis: int) -> np.ndarray:
    """Trigonometric basis phi_0 = 1, phi_k = sqrt(2) cos(pi k y) for
    k = 1..n_basis-1, one row per point: the (n, n_basis) transpose
    view of a buffer whose row k is cos(k theta), theta = pi y, from
    ``gram.harmonics``."""
    theta = np.pi * np.asarray(values, dtype=float)
    rows = np.empty((n_basis, theta.size))
    rows[0] = 1.0
    harmonics(theta, rows[1:])
    rows[1:] *= np.sqrt(2.0)
    return rows.T


def significance_line(sigma: np.ndarray, n_reg: int) -> np.ndarray:
    """Straight line fitted through the ``n_reg`` smallest singular
    values against their (1-based) index, evaluated at every index."""
    m = sigma.size
    idx = np.arange(1, m + 1, dtype=float)
    tail_idx = idx[m - n_reg :]
    tail_sigma = sigma[m - n_reg :]
    slope, intercept = np.polyfit(tail_idx, tail_sigma, 1)
    return intercept + slope * idx


def moment_matrix(series: ObservedSeries, n_basis: int) -> np.ndarray:
    """The ``n_basis`` x ``n_basis`` pairwise moment matrix
    (1/n) sum_t phi(y_t) phi(y_{t+1})^T of a univariate series, over
    within-sequence pairs.

    When the pooled values fall outside [0, 1] they are first mapped
    onto it by (y - lo) / (hi - lo).  The leading k x k block of the
    result is the moment matrix for a basis of size k.
    """
    if series.dim != 1:
        raise ValueError("the spectral baseline handles univariate data only")
    if n_basis > series.n_pairs:
        raise ValueError("n_basis must not exceed the number of pairs")
    y = series.points[:, 0]
    lo, hi = float(y.min()), float(y.max())
    if lo < 0.0 or hi > 1.0:
        if not 0.0 < hi - lo < np.inf:
            raise ValueError(
                f"degenerate data: values from {lo} to {hi} cannot be mapped onto [0, 1]"
            )
        y = (y - lo) / (hi - lo)
    return pair_moments(build_selectors(series), lambda a, b: basis_matrix(y[a:b], n_basis)).T


def spectral_order(
    series: ObservedSeries, config: SpectralConfig, moments: np.ndarray | None = None
) -> SpectralResult:
    """Run the spectral baseline on a univariate series.

    ``moments``, when given, is ``moment_matrix(series, m)`` for some
    m >= ``config.n_basis``, and its leading block is used in place of
    a fresh build.  Counting stops at the first non-significant
    singular value.
    """
    if moments is None:
        moments = moment_matrix(series, config.n_basis)
    elif moments.shape[0] < config.n_basis:
        raise ValueError(
            f"moments of size {moments.shape[0]} cannot serve n_basis {config.n_basis}"
        )
    nhat = moments[: config.n_basis, : config.n_basis]
    sigma = np.linalg.svd(nhat, compute_uv=False)
    fitted = significance_line(sigma, config.n_reg)
    significant = sigma > TAU_FACTOR * fitted
    l_hat = 0
    for flag in significant:
        if not flag:
            break
        l_hat += 1
    return SpectralResult(
        l_hat=l_hat,
        sigma=sigma,
        fitted=fitted,
        significant=significant,
        config=config,
    )
