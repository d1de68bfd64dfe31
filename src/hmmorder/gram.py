"""Gram matrix of the smoothing kernels, its factors, and the pair
product whose singular values are the spectrum of the smoothed pair
operator.

For observations y_1..y_N (pooled over sequences) the Gram matrix is
W[i, j] = phi_h(y_i, y_j).  The pairs are the n within-sequence
consecutive pairs (t, t + 1).  For any factor F with F F^T = W the pair
product

    P = (1/n) * sum_t F[t + 1]^T F[t]

has exactly the nonzero singular values of the empirical smoothed pair
operator.  ``pair_moments`` is the one walk over the pairs: it sums
f(y_{t+1}) f(y_t)^T over each sequence in blocks of at most
``_PAIR_BLOCK`` pairs, asking a map ``rows(a, b)`` for the features f
of one block's points at a time; the spectral baseline's are a cosine
basis.  ``estimate_operator_matrix`` differs by size and kernel only
in where the rows of F come from, split at N = FULL_SVD_MAX_N points:

* up to it, the dense symmetric square root M = W^(1/2), so that P is
  the N x N product (1/n) M S M with S the pair-shift selector;
* above it, for a von Mises kernel, 2M + 1 trigonometric features
  from the Fourier series of phi_h (``vonmises_features``), evaluated
  per block and never stored, with M the fewest harmonics that leave
  out at most the Cholesky factor's stop level on each diagonal entry:
  33-63 features from n = 600 to 64000 at the default bandwidth.
  Their harmonics come from ``harmonics``, which the spectral
  baseline's cosine basis shares.  When 2M + 1 would exceed N (tiny
  bandwidths), the Cholesky factor below is smaller and takes over;
* otherwise a stored N x k pivoted Cholesky factor (``cholesky_factor``),
  which stops once the largest residual diagonal is at the rounding
  level of W's own entries.  One greedy step (``_greedy``, one GEMV
  per pivot) takes its first 64 pivots on kernel columns over every
  point, and then up to 64 pivots per panel on a 64 x 64 candidate
  block, whose columns are formed on the points not yet pivoted by one
  GEMM, at O(N k^2) in all.  No N x N array is allocated unless k
  reaches N; the d = 1 Grams have k of 30-70 up to n = 64000, the
  d = 3 Grams at n = 1000 about 660-730.

The points' dimension is checked in ``kernels``, before any work here.

Only the leading ``l_max`` singular values are computed and the
Frobenius mass is summed directly.  Up to FULL_SVD_MAX_N rows they come
from a full SVD; above it, from a residual-certified block Krylov
iteration in numpy alone, with the full SVD as its fallback.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import (
    VONMISES,
    KernelSpec,
    _as_points,
    _check_column,
    _column_evaluator,
    cross_gram_matrix,
    gram_diagonal,
    vonmises_harmonics,
)
from .series import ObservedSeries

#: one size limit with two uses: above this many points the operator
#: spectrum comes from the von Mises features or the pivoted Cholesky factor
#: instead of the dense square root, and above this many rows of a pair
#: matrix its leading singular values come from block Krylov iteration
#: instead of a full SVD (the measured crossover at l_max = 10)
FULL_SVD_MAX_N = 200

DEFAULT_L_MAX = 10

#: greedy pivots that ``cholesky_factor`` takes one at a time, and the
#: candidates of each of its later panels
_PIVOT_BLOCK = 64

#: a panel of ``cholesky_factor`` accepts a candidate only while its
#: residual is above this share of the largest residual at the panel's
#: start: relaxed pivoting, whose element growth stays within
#: 1/sqrt(_PANEL_RELAX) of greedy
_PANEL_RELAX = 1e-3

#: pairs per block of ``pair_moments``, which therefore holds the
#: features of at most ``_PAIR_BLOCK + 1`` points at once
_PAIR_BLOCK = 2048


@dataclass(frozen=True, eq=False)
class PairSelectors:
    """The pooled point range (a, b) of each sequence, whose pairs are
    (a, a + 1), ..., (b - 2, b - 1)."""

    runs: tuple

    def __post_init__(self):
        runs = tuple((int(a), int(b)) for a, b in self.runs)
        if not runs or any(b - a < 2 for a, b in runs):
            raise ValueError("each sequence needs at least two points")
        object.__setattr__(self, "runs", runs)

    @property
    def n_pairs(self) -> int:
        return sum(b - a - 1 for a, b in self.runs)


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
    """The pooled point range of each sequence."""
    ends = np.cumsum([seq.shape[0] for seq in series.sequences]).tolist()
    return PairSelectors(tuple(zip([0] + ends[:-1], ends)))


def pair_moments(sel: PairSelectors, rows) -> np.ndarray:
    """(1/n) sum_t f(y_{t+1}) f(y_t)^T over the pairs of ``sel``, where
    ``rows(a, b)`` returns the feature rows of pooled points a..b-1.

    Each sequence is walked in blocks of at most ``_PAIR_BLOCK`` pairs,
    and consecutive blocks share one point, so every pair is counted
    once and no pair crosses a sequence boundary.
    """
    out = None
    for a, b in sel.runs:
        for start in range(a, b - 1, _PAIR_BLOCK):
            f = rows(start, min(start + _PAIR_BLOCK + 1, b))
            if out is None:
                out = f[1:].T @ f[:-1]
            else:
                out += f[1:].T @ f[:-1]
    out /= sel.n_pairs
    return out


def build_gram(series: ObservedSeries, kernel: KernelSpec) -> np.ndarray:
    """Gram matrix W[i, j] = phi_h(y_i, y_j) over all pooled points."""
    return cross_gram_matrix(kernel, series.points)


def cholesky_factor(series: ObservedSeries, kernel: KernelSpec) -> np.ndarray:
    """N x k factor F with F F^T = W, by pivoted Cholesky in panels.

    Every pivot is taken by one greedy step (``_greedy``): the point
    with the largest residual diagonal, whose Gram column less the part
    the earlier columns explain becomes the next column.  The first
    ``_PIVOT_BLOCK`` steps take that column on every point, so a factor
    of rank below ``_PIVOT_BLOCK`` is the greedy one, bit for bit.
    After them each step is a panel:

    * its candidates are the ``_PIVOT_BLOCK`` points not yet pivoted
      with the largest residual diagonals, ties broken by original
      index;
    * the greedy step, run on their residual block (their kernel block
      less one small GEMM), accepts candidates while the largest
      in-panel residual is above both the stop level and
      ``_PANEL_RELAX`` times the largest residual at the panel's start;
    * the accepted candidates' kernel columns are evaluated on the
      unpivoted points in one call, updated by one GEMM, and turned into
      columns of F by one product with the inverse of the triangular
      factor of their block.

    The relaxed rule keeps element growth within 1/sqrt(_PANEL_RELAX)
    of greedy; accepting down to the stop level alone drove a d = 3
    residual diagonal below the floor below.  Any pivot set gives a
    Nystrom factor, so F is exact to the same level as greedy, at a
    rank 1-3% above it on the d = 3 Grams.

    It stops once every unpivoted residual diagonal is at most N * eps *
    max diag W, the rounding level of W's own entries.  ``LinAlgError``
    says W is not PSD when an unpivoted residual diagonal lies below
    psd_sqrt's floor, -1e-12 * max diag W, or when the residual column
    W[:, p] - F F[p]^T on the unpivoted points, p the one with the
    largest residual, exceeds the stop level plus 1e-12 * max diag W; a
    zero diagonal with nonzero off-diagonal entries shows only there.
    A non-finite kernel value raises ``FloatingPointError`` naming its
    two points.

    The columns are stored over the points in their original order, a
    panel's columns zero on earlier pivots, in a buffer that grows by
    one panel at a time, so F is never permuted or copied.  The cost is
    about k kernel columns on the unpivoted points, a 64 x 64 block per
    panel, and O(N k^2) operations, nearly all in GEMM; W is never
    formed.  Harbrecht, Peters & Schneider (2012); Chen, Epperly, Tropp
    & Webber (2022).
    """
    pts = series.points
    n = pts.shape[0]
    # the residual diagonal; ``_greedy`` and the panels set it to -inf
    # on the pivots, so its maximum is over the points not yet pivoted
    resid = gram_diagonal(kernel, pts)
    columns = _column_evaluator(kernel)
    d_max = float(np.max(resid))
    stop = n * np.finfo(float).eps * d_max

    def column(p):
        # the kernel column of point p on every point
        return _check_column(kernel, columns(pts, pts[p : p + 1])[0], p)

    # rows[j] is column j of F, so each update reads one contiguous block
    # per column
    rows = np.empty((min(n, _PIVOT_BLOCK), n))
    k = len(_greedy(column, resid, stop, rows))

    def residual_columns(piv, at):
        # row r is the residual column of piv[r] on the points ``at``
        c = _check_column(kernel, columns(pts[at], pts[piv]), piv, at)
        c -= np.take(rows[:k, piv].T @ rows[:k], at, axis=1)
        return c

    while np.max(resid) > stop:
        # a panel: its candidates among the points ``at`` not yet pivoted
        at = np.flatnonzero(resid > -np.inf)
        cand = at[np.argsort(-resid[at], kind="stable")[:_PIVOT_BLOCK]]
        block = _check_column(kernel, columns(pts[cand], pts[cand]), cand, cand)
        g = rows[:k, cand]
        block -= g.T @ g
        t = np.empty_like(block)
        level = max(stop, _PANEL_RELAX * resid[cand[0]])
        accepted = _greedy(lambda p: block[p], resid[cand], level, t)
        piv = cand[accepted]
        b = len(piv)
        new = np.linalg.inv(np.tril(t[:b, accepted].T)) @ residual_columns(piv, at)
        if k + b > rows.shape[0]:
            # realloc, one panel at a time: a large buffer is moved, not
            # copied.  No view of rows is alive here.
            rows.resize((min(n, k + _PIVOT_BLOCK), n), refcheck=False)
        rows[k : k + b] = 0.0
        rows[k : k + b, at] = new
        resid[at] -= np.einsum("ij,ij->j", new, new)
        resid[piv] = -np.inf
        k += b
    at = np.flatnonzero(resid > -np.inf)
    floor = -1e-12 * d_max
    low = float(np.min(resid[at], initial=0.0))
    if low < floor:
        raise np.linalg.LinAlgError(
            f"matrix is not PSD: residual diagonal {low:.6e} below {floor:.6e}"
        )
    # the residual column of the unpivoted point with the largest
    # residual, empty once k = N
    c = residual_columns(np.argmax(resid, keepdims=True), at)
    off, limit = float(np.max(np.abs(c), initial=0.0)), stop - floor
    if off > limit:
        raise np.linalg.LinAlgError(
            f"matrix is not PSD: residual column {off:.6e} above {limit:.6e}"
        )
    return rows[:k].T


def _greedy(column, d: np.ndarray, level: float, rows: np.ndarray) -> list:
    """Left-looking greedy pivoted Cholesky on residual diagonals ``d``:
    while the largest, at p, is above ``level`` and ``rows`` has a row
    left, p is the next pivot, and the next row is ``column(p)``, p's
    Gram column, less the part the earlier rows explain (one GEMV), over
    sqrt(d[p]).  ``d`` is updated, and set to -inf on the pivots, which
    are returned in order.  On a panel's block, row j at the pivots'
    positions is column j of their lower-triangular factor."""
    pivots = []
    for j, row in enumerate(rows):
        p = int(np.argmax(d))
        if d[p] <= level:
            break
        np.subtract(column(p), rows[:j, p] @ rows[:j], out=row)
        row /= np.sqrt(d[p])
        d -= row * row
        d[p] = -np.inf
        pivots.append(p)
    return pivots


def harmonics(theta: np.ndarray, cos: np.ndarray, sin: np.ndarray | None = None) -> None:
    """cos(m theta) into row m - 1 of ``cos``, m = 1..len(cos), and
    sin(m theta) into the rows of ``sin`` when given.

    One cos and one sin pass give z_1 = exp(i theta); each further
    harmonic is the complex product z_m = z_{m-1} z_1, the angle-addition
    step c_m = c_{m-1} c_1 - s_{m-1} s_1, s_m = s_{m-1} c_1 + c_{m-1} s_1,
    on two length-N complex vectors.  For 63 harmonics of 64001 points
    that takes 17 ms against 185 ms for a cosine and a sine per entry
    and 33 ms for the same step in real arithmetic (one thread, 2-core
    VM).  Its error grows linearly in m: on [0, 2 pi) it is at most
    5.2e-15 at m = 63, where a cosine or sine per entry is off by
    2.8e-14 from rounding m theta.
    """
    z1 = np.empty(theta.size, dtype=complex)
    np.cos(theta, out=z1.real)
    np.sin(theta, out=z1.imag)
    z = z1.copy()
    for m in range(len(cos)):
        if m:
            np.multiply(z, z1, out=z)
        cos[m] = z.real
        if sin is not None:
            sin[m] = z.imag


def vonmises_features(series: ObservedSeries, kernel: KernelSpec):
    """Feature map ``rows(a, b)`` of a von Mises kernel: the rows

        f(y) = (2 pi)^(-1/2) [1, sqrt(2) rho_m cos(m y), sqrt(2) rho_m sin(m y)],

    m = 1..M, of pooled points a..b-1, from the Fourier series of phi_h,
    with rho_m = I_m(kap)/I_0(kap).  Over all N points they make an F
    with F F^T = W up to M's omitted part of each diagonal entry: PSD,
    equal on all of them and at most ``cholesky_factor``'s stop level
    N * eps * phi_h(y, y).  M and the weights are fixed once and act
    point by point, so a block's rows are F's, bit for bit.  None if
    2M + 1 would exceed N, where the Cholesky factor is smaller.
    """
    y = _as_points(kernel, series.points)[:, 0]
    stop = y.size * np.finfo(float).eps * kernel._diag
    rho = vonmises_harmonics(kernel.concentration, stop, (y.size - 1) // 2)
    if rho is None:
        return None
    m = rho.size
    weights = np.tile(rho / np.sqrt(np.pi), 2)[:, None]

    def rows(a, b):
        # the features as rows, so each harmonic is one contiguous vector
        f = np.empty((2 * m + 1, b - a))
        f[0] = 1.0 / np.sqrt(2.0 * np.pi)
        harmonics(y[a:b], f[1 : m + 1], f[m + 1 :])
        f[1:] *= weights
        return f.T

    return rows


def psd_sqrt(w: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in [-1e-12 * max(1, lam_max), 0) are treated as round-off
    and clamped to zero; anything lower raises, since a genuinely
    indefinite matrix signals a kernel or bandwidth bug.  A non-finite
    entry fails the symmetry check with ``ValueError``.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"matrix must be square, got {w.shape}")
    asym = np.max(np.abs(w - w.T), initial=0.0)
    w_max = np.max(np.abs(w), initial=0.0)
    # written so that a NaN asymmetry (a non-finite entry) also fails
    if not asym <= 1e-10 * max(1.0, w_max):
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
    return 0.5 * (m + m.T)


def build_shifted_product(factor: np.ndarray, sel: PairSelectors) -> np.ndarray:
    """Pair product (1/n) sum_t F[t + 1]^T F[t] of a factor F with
    F F^T = W, whose singular values equal those of the empirical
    smoothed pair operator.  For the symmetric square root M it is the
    N x N matrix (1/n) M S M.  The rows of F are summed by
    ``pair_moments`` from contiguous slices, so no copy of F is made.
    """
    f = np.asarray(factor, dtype=float)
    return pair_moments(sel, lambda a, b: f[a:b])


def singular_spectrum(v: np.ndarray, l_max: int = DEFAULT_L_MAX) -> SingularSpectrum:
    """Leading singular values of ``v`` plus its exact Frobenius mass.

    Up to FULL_SVD_MAX_N a full SVD gives the leading ``l_max`` values.
    Beyond it they come from a block Krylov iteration
    (``_krylov_singular_values``) that certifies each value by its
    residual and falls back to the full SVD when it cannot; the tail
    statistics need nothing more once ``frob_sq`` is known.
    """
    v = np.asarray(v, dtype=float)
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    frob_sq = float(np.sum(v * v))
    k = min(l_max, min(v.shape))
    sigma = None
    if min(v.shape) > FULL_SVD_MAX_N:
        sigma = _krylov_singular_values(v, k)
    if sigma is None:
        sigma = np.linalg.svd(v, compute_uv=False)[:k]
    return SingularSpectrum(sigma=sigma, frob_sq=frob_sq)


def _krylov_singular_values(v: np.ndarray, k: int):
    """The k leading singular values of ``v`` by block Krylov iteration
    with Rayleigh-Ritz, or None if they could not be certified.

    The basis Q of the right Krylov space starts from a seeded Gaussian
    block of k + 6 columns, so the result is deterministic, and grows
    by blocks orth(v.T @ v @ Q_last); v @ Q is kept block by block, so
    v is applied once per block.  Every second block the SVD of v @ Q
    gives Ritz values theta_i, lower bounds on sigma_i since Q is
    orthonormal, and vectors with v w_i = theta_i u_i.  The values are
    accepted once every residual |v.T u_i - theta_i w_i| is at most
    1e-14 * theta_1.  The iteration gives up at 16 blocks, once Q spans
    the whole space, or once a check fails to cut the largest residual
    of the check before it tenfold.  The pair products of simulated
    series at their default bandwidth cut it by 1e4 or more per check;
    at h = 1e-3 the leading values cluster, and the second check cut
    it only by factors of 0.24 (vm3, n = 400) and 0.3 (gauss-shift,
    n = 1000), on the way to 7.5e-9 and 1.7e-5 at 16 blocks.
    Halko, Martinsson & Tropp (2011); Musco & Musco (2015).
    """
    n = v.shape[1]
    width = min(k + 6, n)
    max_size = min(n, 16 * width)
    start = np.random.default_rng(0).standard_normal((n, width))
    blocks = [np.linalg.qr(start)[0]]
    images = [v @ blocks[0]]
    size, last = width, np.inf
    while True:
        if len(blocks) % 2 == 0 or size >= max_size:
            u, theta, wt = np.linalg.svd(np.hstack(images), full_matrices=False)
            ritz = np.hstack(blocks) @ wt[:k].T
            resid = np.linalg.norm(v.T @ u[:, :k] - ritz * theta[:k], axis=0)
            if np.all(resid <= 1e-14 * theta[0]):
                return theta[:k]
            worst = float(np.max(resid))
            if size >= max_size or worst > 0.1 * last:
                return None
            last = worst
        cols = min(width, max_size - size)
        nxt = _orthonormal_complement(v.T @ images[-1][:, :cols], np.hstack(blocks))
        blocks.append(nxt)
        images.append(v @ nxt)
        size += cols


def _orthonormal_complement(w: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning (I - basis basis.T) w.

    Projecting twice before one QR is not enough when v is rank
    deficient: w then lies almost inside the basis, the QR of the
    round-off left after projection is not orthogonal to it, and Ritz
    values from the basis are no longer bounds (the residual check
    then fails on the rank-deficient d = 1 pair products).  One more
    projection and QR restore orthogonality to working precision.
    """
    w = w - basis @ (basis.T @ w)
    w = w - basis @ (basis.T @ w)
    w = np.linalg.qr(w)[0]
    w = w - basis @ (basis.T @ w)
    return np.linalg.qr(w)[0]


def estimate_operator_matrix(
    series: ObservedSeries, kernel: KernelSpec, l_max: int = DEFAULT_L_MAX
) -> SingularSpectrum:
    """Singular spectrum of the empirical smoothed pair operator of a
    series, from the pair product of the Gram square root up to
    FULL_SVD_MAX_N points, above it of the von Mises features or else
    the pivoted Cholesky factor.  Singular values past the factor's rank
    are exactly zero and are stored as such."""
    sel = build_selectors(series)
    large = series.n_points > FULL_SVD_MAX_N
    rows = vonmises_features(series, kernel) if large and kernel.family == VONMISES else None
    if rows is not None:
        product = pair_moments(sel, rows)
    elif not large:
        product = build_shifted_product(psd_sqrt(build_gram(series, kernel)), sel)
    else:
        product = build_shifted_product(cholesky_factor(series, kernel), sel)
    spec = singular_spectrum(product, l_max=l_max)
    missing = min(l_max, series.n_points) - spec.sigma.size
    if missing <= 0:
        return spec
    return SingularSpectrum(np.concatenate([spec.sigma, np.zeros(missing)]), spec.frob_sq)
