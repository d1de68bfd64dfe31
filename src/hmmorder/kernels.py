"""Kernel families, cross-kernel inner products and bandwidth rules.

Two smoothing kernels ship: the Gaussian kernel for data on R^d and the
von Mises kernel for angles on [0, 2*pi).  The central quantity is the
cross inner product

    phi_h(a, b) = integral of K_h(z - a) * K_h(z - b) dz,

which has a closed form for both families and fills the Gram matrix of
the pair operator.  The Gram matrix is built in blocks of rows: each
block evaluates its upper triangle only and mirrors it in place, so
the matrix itself is the only N x N allocation.  Bandwidths follow h = kappa * n**(-beta) with a
Silverman-style automatic kappa.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .series import ObservedSeries

GAUSSIAN = "gaussian"
VONMISES = "vonmises"

SQRT_2PI = np.sqrt(2.0 * np.pi)

#: squared L2 norm of the standard normal density, 1/(2*sqrt(pi))
GAUSSIAN_L2_SQ = 1.0 / (2.0 * np.sqrt(np.pi))

#: rows of the Gram matrix evaluated per block by ``cross_gram_matrix``
GRAM_BLOCK = 64


@dataclass(frozen=True)
class KernelSpec:
    """A smoothing kernel: family, bandwidth and product dimension.

    For the von Mises family the concentration is ``bandwidth**-2`` and
    only ``dim == 1`` circular data are supported.
    """

    family: str
    bandwidth: float
    dim: int = 1

    def __post_init__(self):
        if self.family not in (GAUSSIAN, VONMISES):
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not (np.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.family == VONMISES and self.dim != 1:
            raise ValueError("von Mises kernel requires dim == 1")

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
        if not (np.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")


@dataclass(frozen=True)
class BandwidthRule:
    """Bandwidth schedule h = kappa * n**(-beta).

    ``kappa=None`` selects the automatic scale: Silverman's
    0.9 * min(sd, IQR/1.34) for univariate data, 0.9 times the geometric
    mean of the per-coordinate standard deviations for d >= 2, and 1 for
    the von Mises kernel.  ``n`` counts consecutive pairs.
    """

    beta: float
    kappa: float | None = None

    def __post_init__(self):
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.kappa is not None and not (np.isfinite(self.kappa) and self.kappa > 0):
            raise ValueError(f"kappa must be positive, got {self.kappa}")

    @classmethod
    def default_for(cls, dim: int, family: str = GAUSSIAN) -> "BandwidthRule":
        """The paper-style default: beta = 1/6 for d = 1 (and for the
        von Mises kernel, with kappa = 1), beta = 1/(4 + 2d) for d >= 2."""
        if family == VONMISES:
            return cls(beta=1.0 / 6.0, kappa=1.0)
        beta = 1.0 / 6.0 if dim == 1 else 1.0 / (4.0 + 2.0 * dim)
        return cls(beta=beta, kappa=None)


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
    """phi_h(a, b) for a single pair of points (closed form for the
    built-in families, delegated for a CustomKernel)."""
    a = _check_finite(a).reshape(-1)
    b = _check_finite(b).reshape(-1)
    if a.shape != b.shape or a.size != spec.dim:
        raise ValueError(
            f"points must both have dimension {spec.dim}, got {a.size} and {b.size}"
        )
    if isinstance(spec, CustomKernel):
        return float(spec.cross_gram_fn(a, b, spec.bandwidth))
    if spec.family == GAUSSIAN:
        h = spec.bandwidth
        sq = float(np.sum((a - b) ** 2))
        return (4.0 * np.pi * h * h) ** (-spec.dim / 2.0) * np.exp(-sq / (4.0 * h * h))
    kap = spec.concentration
    c = abs(np.cos(0.5 * (float(a[0]) - float(b[0]))))
    # I0(2*kap*c) / (2*pi*I0(kap)^2) written with exp-scaled Bessels
    return float(_i0e(2.0 * kap * c) * np.exp(2.0 * kap * (c - 1.0))) / (
        2.0 * np.pi * float(_i0e(kap)) ** 2
    )


def cross_gram_matrix(spec, points: np.ndarray) -> np.ndarray:
    """All pairwise phi_h values for an (N, d) point array.

    The N x N result is the only N x N array allocated.  It is filled in
    blocks of ``GRAM_BLOCK`` rows: each block evaluates the kernel on its
    upper trapezoid ``W[a:b, a:]`` only, is checked for non-finite
    values in row-major order, and mirrors its strictly upper entries
    into the lower triangle in place, so the result is bit-for-bit
    symmetric.  A CustomKernel is called once per pair i <= j.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != spec.dim:
        raise ValueError(f"points must be (N, {spec.dim}), got {pts.shape}")
    n = pts.shape[0]
    if isinstance(spec, CustomKernel):
        w = np.empty((n, n))
        fill = _custom_rows(spec, pts, w)
    elif spec.family == GAUSSIAN:
        # the one Gram of the points doubles as the output buffer
        w = pts @ pts.T
        fill = _gaussian_rows(spec, np.diag(w).copy(), w)
    else:
        w = np.empty((n, n))
        fill = _vonmises_rows(spec, pts[:, 0], w)
    for a, b in row_blocks(n):
        fill(a, b)
        diag = w[a:b, a:b]
        lower = np.tril_indices(b - a, -1)
        diag[lower] = diag.T[lower]
        bad = ~np.isfinite(w[a:b, a:])
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise FloatingPointError(
                f"non-finite kernel value for points {a + i} and {a + j} "
                f"(bandwidth {spec.bandwidth})"
            )
        w[b:, a:b] = w[a:b, b:].T
    return w


def row_blocks(n: int):
    """Bounds (a, b) of consecutive blocks of ``GRAM_BLOCK`` rows of an
    N x N matrix."""
    for a in range(0, n, GRAM_BLOCK):
        yield a, min(a + GRAM_BLOCK, n)


def _custom_rows(spec, pts, w):
    """Call the user's kernel on rows a:b of ``w``, pairs i <= j only."""

    def fill(a, b):
        for i in range(a, b):
            for j in range(i, w.shape[0]):
                w[i, j] = spec.cross_gram_fn(pts[i], pts[j], spec.bandwidth)

    return fill


def _gaussian_rows(spec, norms, w):
    """Turn rows a:b of the point Gram ``w`` (upper trapezoid) into
    phi_h values in place, with the arithmetic of the full-matrix form
    |y_i|^2 + |y_j|^2 - 2 y_i.y_j."""
    h = spec.bandwidth
    scale = (4.0 * np.pi * h * h) ** (-spec.dim / 2.0)

    def fill(a, b):
        blk = w[a:b, a:]
        d2 = np.maximum(norms[a:b, None] + norms[None, a:] - 2.0 * blk, 0.0)
        np.multiply(scale, np.exp(-d2 / (4.0 * h * h)), out=blk)

    return fill


def _vonmises_rows(spec, ang, w):
    """Fill rows a:b of ``w`` (upper trapezoid) from the angles ``ang``."""
    kap = spec.concentration
    norm = 2.0 * np.pi * float(_i0e(kap)) ** 2

    def fill(a, b):
        blk = w[a:b, a:]
        c = np.abs(np.cos(0.5 * (ang[a:b, None] - ang[None, a:])))
        np.multiply(_i0e(2.0 * kap * c), np.exp(2.0 * kap * (c - 1.0)), out=blk)
        blk /= norm

    return fill


def kernel_l2_norm_sq(spec) -> float:
    """Squared L2 norm of the unscaled univariate kernel.

    Equals phi_1 evaluated at coinciding points for the Gaussian family
    and I0(2*kap)/(2*pi*I0(kap)^2) for the von Mises family.  A
    CustomKernel must carry the value explicitly.
    """
    if isinstance(spec, CustomKernel):
        if spec.l2_sq is None:
            raise ValueError("this custom kernel does not declare its L2 norm")
        return float(spec.l2_sq)
    if spec.family == GAUSSIAN:
        return GAUSSIAN_L2_SQ
    kap = spec.concentration
    return float(_i0e(2.0 * kap)) / (2.0 * np.pi * float(_i0e(kap)) ** 2)


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


def select_bandwidth(rule: BandwidthRule, series: ObservedSeries) -> float:
    """Resolve a bandwidth rule against a series: h = kappa * n**(-beta)."""
    n = series.n_pairs
    if n < 1:
        raise ValueError("series has no consecutive pairs")
    kappa = rule.kappa if rule.kappa is not None else silverman_kappa(series)
    return kappa * n ** (-rule.beta)
