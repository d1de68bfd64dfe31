"""Kernel families, cross-kernel inner products and bandwidth rules.

Two smoothing kernels ship: the Gaussian kernel for data on R^d and the
von Mises kernel for angles on [0, 2*pi).  The central quantity is the
cross inner product

    phi_h(a, b) = integral of K_h(z - a) * K_h(z - b) dz,

which has a closed form for both families and fills the Gram matrix of
the pair operator.  Each closed form is written twice: in
``cross_gram_matrix``, the whole matrix for the dense square root of
small N and the tests' oracle, and in ``_column_evaluator``, for every
other value.  Their constants, phi_h(y, y) and the kernel's L2 norm come
from ``_family_constants``, once per ``KernelSpec``, which accepts a
bandwidth only if h, h^-d and every constant are positive finite and,
for the Gaussian family, 4 pi h^2 is a normal float: about
4.2e-155 < h < 4e153 for the Gaussian family in d = 1, 7.5e-155 to
4e153 in d = 2 (2e-103 to 2e107 in d = 3), and h > 1e-154 for von
Mises (1/h^2 may underflow to 0, the uniform kernel).  Bandwidths
follow h = kappa * n**(-beta); ``select_bandwidth`` alone decides the
defaults of beta and kappa.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .series import CIRCULAR, ObservedSeries

GAUSSIAN = "gaussian"
VONMISES = "vonmises"

SQRT_2PI = np.sqrt(2.0 * np.pi)

#: squared L2 norm of the standard normal density, 1/(2*sqrt(pi))
GAUSSIAN_L2_SQ = 1.0 / (2.0 * np.sqrt(np.pi))


def _family_constants(spec) -> tuple:
    """(norm, diag, l2_sq): the closed form's constant (a factor for the Gaussian
    family, a divisor for von Mises), phi_h(y, y) and the kernel's squared L2 norm."""
    if spec.family == GAUSSIAN:
        h = spec.bandwidth
        scale = (4.0 * np.pi * h * h) ** (-spec.dim / 2.0)
        return scale, scale, GAUSSIAN_L2_SQ
    kap = spec.concentration
    norm = 2.0 * np.pi * float(_i0e(kap)) ** 2
    diag = float(_i0e(2.0 * kap)) / norm
    return norm, diag, diag


def _checked(kernel, family_constants=lambda kernel: ()) -> tuple:
    """``family_constants(kernel)`` if h, h^-d (the practical threshold's
    factor) and each constant are positive finite floats, and for the
    Gaussian family 4 pi h^2 is not subnormal, else ValueError."""
    if kernel.dim < 1:
        raise ValueError(f"dim must be >= 1, got {kernel.dim}")
    h = kernel.bandwidth
    try:
        constants = family_constants(kernel)
        values = (h, h**-kernel.dim, *constants)
    except (OverflowError, ZeroDivisionError):
        values = (np.nan,)
    if kernel.family == GAUSSIAN and 4.0 * np.pi * h * h < np.finfo(float).tiny:
        values = (np.nan,)  # a subnormal 4 pi h^2 loses the Gaussian constant's precision
    if not all(np.isfinite(v) and v > 0 for v in values):
        raise ValueError(f"bandwidth {h} is out of range for {kernel.family} in d = {kernel.dim}")
    return constants


@dataclass(frozen=True)
class KernelSpec:
    """A smoothing kernel: family, bandwidth and product dimension.

    For the von Mises family the concentration is ``bandwidth**-2`` and
    only ``dim == 1`` circular data are supported.
    """

    family: str
    bandwidth: float
    dim: int = 1
    _norm: float = field(init=False, repr=False, compare=False)
    _diag: float = field(init=False, repr=False, compare=False)
    l2_sq: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in (GAUSSIAN, VONMISES):
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.family == VONMISES and self.dim != 1:
            raise ValueError("von Mises kernel requires dim == 1")
        for name, value in zip(("_norm", "_diag", "l2_sq"), _checked(self, _family_constants)):
            object.__setattr__(self, name, value)

    @property
    def concentration(self) -> float:
        """Von Mises concentration parameter 1/h^2."""
        if self.family != VONMISES:
            raise AttributeError("concentration is defined for the von Mises family")
        return self.bandwidth**-2


@dataclass(frozen=True, eq=False)
class CustomKernel:
    """A user-supplied kernel, defined by its cross inner product.

    ``cross_gram_fn(a, b, h)`` must return the inner product of the two
    scaled kernels centred at the d-vectors ``a`` and ``b``; any kernel
    with a non-vanishing Fourier transform qualifies.  ``l2_sq`` (the
    squared L2 norm of the unscaled univariate kernel) is only needed
    for the theoretical threshold rule.
    """

    cross_gram_fn: Callable
    bandwidth: float
    dim: int = 1
    l2_sq: float | None = None

    family = "custom"

    def __post_init__(self):
        _checked(self)


@dataclass(frozen=True)
class BandwidthRule:
    """Bandwidth schedule h = kappa * n**(-beta).

    A constant left at ``None`` takes its default from
    ``select_bandwidth``.  ``n`` counts consecutive pairs.
    """

    beta: float | None = None
    kappa: float | None = None

    def __post_init__(self):
        for name in ("beta", "kappa"):
            value = getattr(self, name)
            if value is not None and not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive, got {value}")


def _check_finite(u) -> np.ndarray:
    arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("kernel argument contains non-finite values")
    return arr


def _i0e(x):
    """Exponentially scaled Bessel function I0.

    ``scipy.special`` is loaded on first use: it imports
    ``numpy.testing`` and with it ``concurrent.futures``, which only the
    von Mises kernel needs to pay for.
    """
    from scipy.special import i0e

    return i0e(x)


def kernel_eval(spec: KernelSpec, u) -> np.ndarray | float:
    """Evaluate the unscaled univariate kernel at ``u``.

    Gaussian: the standard normal density.  Von Mises: ``u`` is an angle
    difference and K(u) = exp(cos(u)/h^2) / (2*pi*I0(1/h^2)), evaluated
    through the scaled Bessel function so large concentrations do not
    overflow.
    """
    arr = _check_finite(u)
    if spec.family == GAUSSIAN:
        out = np.exp(-0.5 * arr**2) / SQRT_2PI
    else:
        kap = spec.concentration
        out = np.exp(kap * (np.cos(arr) - 1.0)) / (2.0 * np.pi * _i0e(kap))
    return out if out.ndim else float(out)


def cross_gram(spec, a, b) -> float:
    """phi_h(a, b) for a single pair of points, from the column
    evaluator: one ``cross_gram_fn`` call for a CustomKernel."""
    a = _check_finite(a).reshape(-1)
    b = _check_finite(b).reshape(-1)
    if a.shape != b.shape or a.size != spec.dim:
        raise ValueError(f"points must both have dimension {spec.dim}, got {a.size} and {b.size}")
    return float(_column_evaluator(spec)(a[None], b)[0])


def cross_gram_matrix(spec, points: np.ndarray) -> np.ndarray:
    """All pairwise phi_h values for an (N, d) point array.

    The upper triangle is checked for non-finite values in row-major
    order and mirrored, so the result is bit-for-bit symmetric.  A
    CustomKernel is called once per pair i <= j.
    """
    pts = _as_points(spec, points)
    if isinstance(spec, CustomKernel):
        n = pts.shape[0]
        w = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                w[i, j] = spec.cross_gram_fn(pts[i], pts[j], spec.bandwidth)
    elif spec.family == GAUSSIAN:
        h = spec.bandwidth
        sq = pts @ pts.T
        norms = np.diag(sq).copy()
        d2 = np.maximum(norms[:, None] + norms[None, :] - 2.0 * sq, 0.0)
        w = spec._norm * np.exp(-d2 / (4.0 * h * h))
    else:
        kap = spec.concentration
        ang = pts[:, 0]
        c = np.abs(np.cos(0.5 * (ang[:, None] - ang[None, :])))
        w = _i0e(2.0 * kap * c) * np.exp(2.0 * kap * (c - 1.0))
        w /= spec._norm
    upper = np.triu(w)
    bad = ~np.isfinite(upper)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise FloatingPointError(
            f"non-finite kernel value for points {i} and {j} (bandwidth {spec.bandwidth})"
        )
    return upper + np.triu(w, 1).T


def _as_points(spec, points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != spec.dim:
        raise ValueError(f"points must be (N, {spec.dim}), the kernel dimension, got {pts.shape}")
    return pts


def gram_diagonal(spec, points: np.ndarray) -> np.ndarray:
    """phi_h(y_i, y_i) for every row of an (N, d) point array.

    One constant for the built-in families; a CustomKernel is called
    once per point.
    """
    pts = _as_points(spec, points)
    if not isinstance(spec, CustomKernel):
        return np.full(pts.shape[0], spec._diag)
    diag = np.array([spec.cross_gram_fn(p, p, spec.bandwidth) for p in pts], dtype=float)
    return _check_column(spec, diag, None)


def gram_column(spec, points: np.ndarray, j: int) -> np.ndarray:
    """Column j of the Gram matrix, phi_h(y_i, y_j) for every i, without
    forming the matrix.

    The Gaussian family takes direct differences y_i - y_j, so a common
    shift of the points cancels exactly instead of being lost in
    |y_i|^2 + |y_j|^2 - 2 y_i.y_j; the von Mises family writes c - 1 as
    -sin^2 / (1 + c).  A CustomKernel is called N times.
    """
    pts = _as_points(spec, points)
    return _check_column(spec, _column_evaluator(spec)(pts, pts[j]), j)


def _column_evaluator(spec) -> Callable:
    """``column(pts, y)``: phi_h(x_i, y) for every row x_i of an (M, d)
    array and one d-vector y.  The kernel constants are read once and
    nothing is checked: ``gram_column`` adds the checks, and
    ``gram.cholesky_factor`` validates its points once and checks each
    column itself."""
    h = spec.bandwidth
    if isinstance(spec, CustomKernel):
        fn = spec.cross_gram_fn
        return lambda pts, y: np.array([fn(p, y, h) for p in pts], dtype=float)
    norm = spec._norm
    if spec.family == GAUSSIAN:
        minus_4h2 = -(4.0 * h * h)
        coords = range(1, spec.dim)

        def gaussian(pts, y):
            # one coordinate at a time, in place: the sum of squares in
            # the order of np.sum over a row, at a third of its cost
            d2 = pts[:, 0] - y[0]
            d2 *= d2
            for c in coords:
                diff = pts[:, c] - y[c]
                diff *= diff
                d2 += diff
            d2 /= minus_4h2
            np.exp(d2, out=d2)
            d2 *= norm
            return d2

        return gaussian
    kap = spec.concentration

    def vonmises(pts, y):
        half = 0.5 * (pts[:, 0] - y[0])
        c = np.abs(np.cos(half))
        # c - 1 = -sin^2 / (1 + c) keeps its relative accuracy near c = 1,
        # where 2 * kap * (c - 1) would multiply the rounding of c by kap
        col = _i0e(2.0 * kap * c) * np.exp(-2.0 * kap * np.sin(half) ** 2 / (1.0 + c))
        col /= norm
        return col

    return vonmises


def _check_column(spec, col: np.ndarray, j, index=None) -> np.ndarray:
    """``col`` if finite, else FloatingPointError naming the first bad
    pair (i, j), or (i, i) for the diagonal (j None).  With ``index``,
    i and j are positions in ``col`` and index[i], index[j] the points
    named."""
    bad = ~np.isfinite(col)
    if bad.any():
        i = int(np.argmax(bad))
        if index is not None:
            i, j = int(index[i]), int(index[j])
        raise FloatingPointError(
            f"non-finite kernel value for points {i} and {i if j is None else j} "
            f"(bandwidth {spec.bandwidth})"
        )
    return col


def kernel_l2_norm_sq(spec) -> float:
    """Squared L2 norm of the unscaled univariate kernel.

    Equals phi_1 at coinciding points for the Gaussian family and
    phi_h(y, y) = I0(2*kap)/(2*pi*I0(kap)^2) for the von Mises family.
    A CustomKernel must carry the value explicitly.
    """
    if spec.l2_sq is None:
        raise ValueError("this custom kernel does not declare its L2 norm")
    return float(spec.l2_sq)


def silverman_kappa(series: ObservedSeries) -> float:
    """Automatic bandwidth scale from the pooled observations.

    Univariate: 0.9 * min(sd, IQR/1.34).  Multivariate: 0.9 times the
    geometric mean of the per-coordinate standard deviations (a single
    scalar bandwidth is shared by all coordinates).
    """
    pts = series.points
    sds = np.std(pts, axis=0, ddof=1)
    if np.any(sds <= 0):
        raise ValueError("degenerate data: a coordinate has zero variance")
    if series.dim == 1:
        iqr = float(np.quantile(pts[:, 0], 0.75) - np.quantile(pts[:, 0], 0.25))
        scale = min(float(sds[0]), iqr / 1.34)
        if scale <= 0:
            raise ValueError("degenerate data: zero interquartile range and variance")
        return 0.9 * scale
    return 0.9 * float(np.prod(sds)) ** (1.0 / series.dim)


def default_beta(dim: int) -> float:
    """The paper's bandwidth exponent for dimension d: 1/(4 + 2d)."""
    return 1.0 / (4.0 + 2.0 * dim)


def select_bandwidth(rule: BandwidthRule, series: ObservedSeries) -> float:
    """Resolve a bandwidth rule against a series: h = kappa * n**(-beta).

    The defaults are decided here, from the series alone: beta =
    ``default_beta(d)``, and kappa = 1 for a circular series and
    ``silverman_kappa`` otherwise, whatever the kernel.  Silverman's
    rule is not rotation invariant on angles, so a circular series
    never uses it.
    """
    n = series.n_pairs
    if n < 1:
        raise ValueError("series has no consecutive pairs")
    beta = rule.beta if rule.beta is not None else default_beta(series.dim)
    if rule.kappa is not None:
        kappa = rule.kappa
    elif series.kind == CIRCULAR:
        kappa = 1.0
    else:
        kappa = silverman_kappa(series)
    return kappa * n ** (-beta)
