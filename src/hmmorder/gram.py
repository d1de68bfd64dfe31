"""Gram matrix of the smoothing kernels, its PSD square root, and the
shifted product whose singular values are the spectrum of the smoothed
pair operator.

For observations y_1..y_N (pooled over sequences) the Gram matrix is
W[i, j] = phi_h(y_i, y_j).  With M = W^(1/2) and the pair selectors
(first_k, second_k) ranging over within-sequence consecutive pairs, the
N x N shifted product

    B = (1/n) * M[:, second] @ M[first, :] = (1/n) * M S M,

with S the pair-shift selector, has exactly the nonzero singular values
of the empirical smoothed pair operator.  ``estimate_operator_matrix``
returns that spectrum through the dense square root.  W and its
square root are each one N x N array: the Gram matrix is filled by
row blocks of its upper triangle, mirrored in place, and the symmetry
check and symmetrisation of the square root walk the same row blocks.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, cross_gram_matrix, row_blocks
from .series import ObservedSeries

#: above this pair count, singular values are computed iteratively
FULL_SVD_MAX_N = 4000

DEFAULT_L_MAX = 10


@dataclass(frozen=True, eq=False)
class PairSelectors:
    """Point indices of the first and second member of each pair."""

    first: np.ndarray
    second: np.ndarray

    def __post_init__(self):
        first = np.asarray(self.first, dtype=np.intp)
        second = np.asarray(self.second, dtype=np.intp)
        if first.shape != second.shape or first.ndim != 1:
            raise ValueError("selector index lists must be 1-d and equally long")
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)

    @property
    def n_pairs(self) -> int:
        return self.first.size


@dataclass(frozen=True, eq=False)
class SingularSpectrum:
    """Leading singular values plus the exact squared Frobenius norm.

    ``frob_sq`` equals the sum over *all* squared singular values, so
    tail sums can be formed without a full decomposition.
    """

    sigma: np.ndarray
    frob_sq: float

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.ndim != 1:
            raise ValueError("sigma must be a vector")
        if np.any(np.diff(sigma) > 1e-12 * max(1.0, abs(float(sigma[0])) if sigma.size else 1.0)):
            raise ValueError("sigma must be nonincreasing")
        object.__setattr__(self, "sigma", sigma)


def build_selectors(series: ObservedSeries) -> PairSelectors:
    """Within-sequence consecutive-pair indices into the pooled points."""
    first, second = [], []
    offset = 0
    for seq in series.sequences:
        m = seq.shape[0]
        idx = np.arange(offset, offset + m - 1)
        first.append(idx)
        second.append(idx + 1)
        offset += m
    return PairSelectors(np.concatenate(first), np.concatenate(second))


def build_gram(series: ObservedSeries, kernel: KernelSpec) -> np.ndarray:
    """Gram matrix W[i, j] = phi_h(y_i, y_j) over all pooled points."""
    if kernel.dim != series.dim:
        raise ValueError(
            f"kernel dimension {kernel.dim} does not match series dimension {series.dim}"
        )
    return cross_gram_matrix(kernel, series.points)


def psd_sqrt(w: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in [-1e-12 * max(1, lam_max), 0) are treated as round-off
    and clamped to zero; anything lower raises, since a genuinely
    indefinite matrix signals a kernel or bandwidth bug.  The symmetry
    check and the final symmetrisation 0.5 * (m + m.T) run over blocks
    of ``GRAM_BLOCK`` rows, so neither allocates an N x N temporary.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"matrix must be square, got {w.shape}")
    asym, w_max = _max_asymmetry(w)
    if asym > 1e-10 * max(1.0, w_max):
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    lam, q = np.linalg.eigh(w)
    lam_max = float(lam[-1]) if lam.size else 0.0
    floor = -1e-12 * max(1.0, lam_max)
    if lam[0] < floor:
        raise np.linalg.LinAlgError(
            f"matrix is not PSD: min eigenvalue {lam[0]:.6e} below {floor:.6e}"
        )
    lam = np.clip(lam, 0.0, None)
    m = (q * np.sqrt(lam)) @ q.T
    _symmetrise(m)
    return m


def _max_asymmetry(w: np.ndarray):
    """max |w - w.T| (over the upper trapezoid of each row block) and
    max |w|, both NaN if any entry is NaN."""
    asym = w_max = np.float64(0.0)
    for a, b in row_blocks(w.shape[0]):
        asym = np.maximum(asym, np.max(np.abs(w[a:b, a:] - w[a:, a:b].T)))
        w_max = np.maximum(w_max, np.max(np.abs(w[a:b])))
    return asym, w_max


def _symmetrise(m: np.ndarray) -> None:
    """m <- 0.5 * (m + m.T) in place; m_ij + m_ji == m_ji + m_ij exactly,
    so both triangles get the same bits as the full-matrix form."""
    for a, b in row_blocks(m.shape[0]):
        upper = 0.5 * (m[a:b, a:] + m[a:, a:b].T)
        m[a:b, a:] = upper
        m[a:, a:b] = upper.T


def build_shifted_product(gram_sqrt: np.ndarray, sel: PairSelectors) -> np.ndarray:
    """Full N x N matrix (1/n) M S M whose singular values equal those
    of the empirical smoothed pair operator."""
    m = np.asarray(gram_sqrt, dtype=float)
    n = sel.n_pairs
    return m[:, sel.second] @ m[sel.first, :] / n


def singular_spectrum(v: np.ndarray, l_max: int = DEFAULT_L_MAX) -> SingularSpectrum:
    """Leading singular values of ``v`` plus its exact Frobenius mass.

    A full SVD is used up to FULL_SVD_MAX_N; beyond that only the top
    ``l_max`` values are computed iteratively, which is all the tail
    statistics need once ``frob_sq`` is known.
    """
    v = np.asarray(v, dtype=float)
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    frob_sq = float(np.sum(v * v))
    k = min(l_max, min(v.shape))
    if min(v.shape) <= FULL_SVD_MAX_N:
        sigma = np.linalg.svd(v, compute_uv=False)[:k]
    else:
        # loaded here only: importing the package should not pay for it
        import scipy.sparse.linalg

        v0 = np.full(v.shape[1], v.shape[1] ** -0.5)
        sigma = scipy.sparse.linalg.svds(
            v, k=k, v0=v0, return_singular_vectors=False
        )
        sigma = np.sort(sigma)[::-1]
    return SingularSpectrum(sigma=sigma, frob_sq=frob_sq)


def estimate_operator_matrix(
    series: ObservedSeries, kernel: KernelSpec, l_max: int = DEFAULT_L_MAX
) -> SingularSpectrum:
    """Singular spectrum of the empirical smoothed pair operator of a
    series, from the shifted product of the Gram square root."""
    sel = build_selectors(series)
    m = psd_sqrt(build_gram(series, kernel))
    return singular_spectrum(build_shifted_product(m, sel), l_max=l_max)
