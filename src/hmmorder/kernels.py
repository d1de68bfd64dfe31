"""Kernel families, cross-kernel inner products and bandwidth rules.

Two smoothing kernels ship: the Gaussian kernel for data on R^d and the
von Mises kernel for angles on [0, 2*pi).  The central quantity is the
cross inner product

    phi_h(a, b) = integral of K_h(z - a) * K_h(z - b) dz,

which has a closed form for both families and fills the Gram matrix of
the pair operator.  Each closed form is written twice: in
``cross_gram_matrix``, the whole matrix for the dense square root of
small N and the tests' oracle, and in ``_column_evaluator``, for the
Gram columns of the Cholesky factor and every single value.  The von
Mises form also has a Fourier series, whose weights
``vonmises_harmonics`` gives: they make the Gram matrix's trigonometric
factor, which needs no kernel value at all.  The one special function,
the scaled Bessel function I0e, is Cephes' Chebyshev series in numpy,
so the package imports no scipy.  The constants, phi_h(y, y) and the
kernel's L2 norm come from ``_family_constants``, once per
``KernelSpec``, which accepts a
bandwidth only if h, h^-d, every constant and, for the Gaussian
family, 4 pi h^2 are finite normal floats: about 4.2e-155 < h < 3.8e153
for the Gaussian family in d = 1, 7.5e-155 to 1.9e153 in d = 2 (1.8e-103
to 1.0e102 in d = 3), and h > 1.5e-154 for von Mises (1/h^2 may
underflow to 0, the uniform kernel).  Bandwidths
follow h = kappa * n**(-beta); ``select_bandwidth`` alone decides the
defaults of beta and kappa.
"""

import math
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
    factor), each constant and, for the Gaussian family, 4 pi h^2 are
    finite normal floats, else ValueError: a subnormal value has lost
    its relative precision."""
    if kernel.dim < 1:
        raise ValueError(f"dim must be >= 1, got {kernel.dim}")
    h = kernel.bandwidth
    try:
        constants = family_constants(kernel)
        values = (h, h**-kernel.dim, *constants)
        if kernel.family == GAUSSIAN:
            values += (4.0 * np.pi * h * h,)
    except (OverflowError, ZeroDivisionError):
        values = (np.nan,)
    if not all(np.isfinite(v) and v >= np.finfo(float).tiny for v in values):
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


#: Chebyshev coefficients of exp(-x) I0(x) in x/2 - 2 on [0, 8], and of
#: exp(-x) sqrt(x) I0(x) in 32/x - 2 on (8, inf): Cephes ``i0.c``
#: (S. L. Moshier), the coefficients numpy's ``i0`` also uses
_I0E_A = (
    -4.41534164647933937950e-18,
    3.33079451882223809783e-17,
    -2.43127984654795469359e-16,
    1.71539128555513303061e-15,
    -1.16853328779934516808e-14,
    7.67618549860493561688e-14,
    -4.85644678311192946090e-13,
    2.95505266312963983461e-12,
    -1.72682629144155570723e-11,
    9.67580903537323691224e-11,
    -5.18979560163526290666e-10,
    2.65982372468238665035e-9,
    -1.30002500998624804212e-8,
    6.04699502254191894932e-8,
    -2.67079385394061173391e-7,
    1.11738753912010371815e-6,
    -4.41673835845875056359e-6,
    1.64484480707288970893e-5,
    -5.75419501008210370398e-5,
    1.88502885095841655729e-4,
    -5.76375574538582365885e-4,
    1.63947561694133579842e-3,
    -4.32430999505057594430e-3,
    1.05464603945949983183e-2,
    -2.37374148058994688156e-2,
    4.93052842396707084878e-2,
    -9.49010970480476444210e-2,
    1.71620901522208775349e-1,
    -3.04682672343198398683e-1,
    6.76795274409476084995e-1,
)
_I0E_B = (
    -7.23318048787475395456e-18,
    -4.83050448594418207126e-18,
    4.46562142029675999901e-17,
    3.46122286769746109310e-17,
    -2.82762398051658348494e-16,
    -3.42548561967721913462e-16,
    1.77256013305652638360e-15,
    3.81168066935262242075e-15,
    -9.55484669882830764870e-15,
    -4.15056934728722208663e-14,
    1.54008621752140982691e-14,
    3.85277838274214270114e-13,
    7.18012445138366623367e-13,
    -1.79417853150680611778e-12,
    -1.32158118404477131188e-11,
    -3.14991652796324136454e-11,
    1.18891471078464383424e-11,
    4.94060238822496958910e-10,
    3.39623202570838634515e-9,
    2.26666899049817806459e-8,
    2.04891858946906374183e-7,
    2.89137052083475648297e-6,
    6.88975834691682398426e-5,
    3.36911647825569408990e-3,
    8.04490411014108831608e-1,
)


def _chbevl(x, coefs):
    """Clenshaw's sum of a Chebyshev series at x, in Cephes' order of
    operations (``chbevl.c``)."""
    b0, b1 = coefs[0], 0.0
    for c in coefs[1:]:
        b2, b1 = b1, b0
        b0 = x * b1 - b2 + c
    return 0.5 * (b0 - b2)


def _i0e(x):
    """Exponentially scaled Bessel function I0, exp(-|x|) I0(x), for a
    scalar or an array: Cephes ``i0e``, bit for bit the value of
    ``scipy.special.i0e``.  A scalar is summed in Python floats, at a
    twentieth of the cost of 0-d array arithmetic."""
    x = np.abs(np.asarray(x, dtype=float))
    if x.ndim == 0:
        v = float(x)
        if v <= 8.0:
            return _chbevl(v / 2.0 - 2.0, _I0E_A)
        return _chbevl(32.0 / v - 2.0, _I0E_B) / math.sqrt(v)
    out = np.empty_like(x)
    low = x <= 8.0
    out[low] = _chbevl(x[low] / 2.0 - 2.0, _I0E_A)
    high = x[~low]
    out[~low] = _chbevl(32.0 / high - 2.0, _I0E_B) / np.sqrt(high)
    return out


def vonmises_harmonics(kap: float, tol: float, m_max: int):
    """rho_m = I_m(kap)/I_0(kap) for m = 1..M, the weights of the Fourier
    series of the von Mises cross inner product (Neumann's addition
    theorem)

        phi_h(a, b) = (1/2 pi) [1 + 2 sum_{m>=1} rho_m^2 cos(m (a - b))],

    for the smallest M whose omitted part (1/pi) sum_{m>M} rho_m^2 is at
    most ``tol``, or None if that M exceeds ``m_max``.

    Amos's bound I_m/I_{m-1} <= u_m = kap/(m - 1/2 + hypot(m - 1/2, kap)),
    which decreases in m, bounds the omitted part beyond any m by the
    geometric series (u_1 ... u_{m+1})^2 / (1 - u_{m+1}^2).  The ratios
    come from the backward recurrence I_m/I_{m-1} = kap/(2m + kap
    I_{m+1}/I_m), started from u at the first m whose bound is below
    eps * tol (or at m_max) and multiplied up; each step down scales the
    start's relative error by I_m/I_{m-1} * I_{m+1}/I_m < 1, so it
    reaches each rho_m^2 at the level of that bound.  The work is
    O(m_max) vector operations and a loop to the start.  Amos, Math.
    Comp. 28 (1974) 239-251.
    """
    half = np.arange(0.5, m_max + 1.0)
    u = kap / (half + np.hypot(half, kap))  # u[m] bounds I_{m+1}/I_m
    with np.errstate(divide="ignore"):  # u = 1 only when kap >> m_max
        beyond = np.cumprod(u) ** 2 / (1.0 - u * u) / np.pi  # beyond m, m = 0..m_max
    if beyond[-1] > tol:
        return None
    small = beyond <= np.finfo(float).eps * tol
    top = int(np.argmax(small)) if small[-1] else m_max
    ratios = np.empty(top)
    r = float(u[top])
    for m in range(top, 0, -1):
        r = kap / (2.0 * m + kap * r)
        ratios[m - 1] = r
    rho = np.cumprod(ratios)
    # omitted part beyond M = 0..top, summed from the smallest term
    omitted = np.append(np.cumsum((rho * rho)[::-1])[::-1], 0.0) / np.pi + beyond[top]
    return rho[: int(np.argmax(omitted <= tol))]


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
    return float(_column_evaluator(spec)(a[None], b[None])[0, 0])


def cross_gram_matrix(spec, points: np.ndarray) -> np.ndarray:
    """All pairwise phi_h values for an (N, d) point array.

    The upper triangle is checked for non-finite values in row-major
    order and mirrored, so the result is bit-for-bit symmetric.  A
    CustomKernel is called once per pair i <= j, by the column
    evaluator, one row at a time.
    """
    pts = _as_points(spec, points)
    if isinstance(spec, CustomKernel):
        columns = _column_evaluator(spec)
        w = np.zeros((len(pts), len(pts)))
        for i in range(len(pts)):
            w[i, i:] = columns(pts[i : i + 1], pts[i:])[:, 0]
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
    return _check_column(spec, _column_evaluator(spec)(pts, pts[[j]])[0], j)


def _column_evaluator(spec) -> Callable:
    """``columns(pts, ys)``: phi_h(x_i, y_r) for every row x_i of an
    (M, d) array and every row y_r of an (m, d) array, as an (m, M)
    array whose row r is the Gram column of y_r.  The kernel constants
    are read once and nothing is checked: ``gram_column`` adds the
    checks, and ``gram.cholesky_factor`` validates its points once and
    checks each panel of columns itself."""
    h = spec.bandwidth
    if isinstance(spec, CustomKernel):
        fn = spec.cross_gram_fn
        # reshaped so that an empty ys still gives a (0, M) array
        return lambda pts, ys: np.array(
            [[fn(p, y, h) for p in pts] for y in ys], dtype=float
        ).reshape(len(ys), len(pts))
    norm = spec._norm
    if spec.family == GAUSSIAN:
        minus_4h2 = -(4.0 * h * h)
        coords = range(1, spec.dim)

        def gaussian(pts, ys):
            # one coordinate at a time, in place: the sum of squares in
            # the order of np.sum over a row, at a third of its cost
            d2 = pts[:, 0] - ys[:, :1]
            d2 *= d2
            for c in coords:
                diff = pts[:, c] - ys[:, c : c + 1]
                diff *= diff
                d2 += diff
            d2 /= minus_4h2
            np.exp(d2, out=d2)
            d2 *= norm
            return d2

        return gaussian
    kap = spec.concentration

    def vonmises(pts, ys):
        half = 0.5 * (pts[:, 0] - ys[:, :1])
        c = np.abs(np.cos(half))
        # c - 1 = -sin^2 / (1 + c) keeps its relative accuracy near c = 1,
        # where 2 * kap * (c - 1) would multiply the rounding of c by kap
        col = _i0e(2.0 * kap * c) * np.exp(-2.0 * kap * np.sin(half) ** 2 / (1.0 + c))
        col /= norm
        return col

    return vonmises


def _check_column(spec, col: np.ndarray, j, index=None) -> np.ndarray:
    """``col`` if finite, else FloatingPointError naming the first bad
    pair (i, j), or (i, i) for the diagonal (j None).  A panel, a 2-D
    ``col`` whose row r is the column of point j[r], is searched row by
    row.  With ``index``, i is a position in a column and index[i] the
    point named."""
    bad = ~np.isfinite(col)
    if bad.any():
        i = int(np.argmax(bad))
        if col.ndim == 2:
            r, i = divmod(i, col.shape[1])
            j = int(j[r])
        if index is not None:
            i = int(index[i])
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
        q1, q3 = np.quantile(pts[:, 0], [0.25, 0.75])
        iqr = float(q3 - q1)
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
