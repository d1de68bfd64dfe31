"""Grid-quadrature oracles for the pair operator.

These are verification tools, deliberately independent of the matrix
pipeline: a pair density evaluated on a uniform grid, scaled by the
quadrature weight, is a finite-dimensional stand-in for the integral
operator, and its singular values converge to the operator's as the
grid refines.

The module also carries analytic helpers for product-form mixture pair
densities with Gaussian components, whose smoothed counterparts and
exact operator singular values are available in closed form.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import GAUSSIAN, SQRT_2PI, KernelSpec, kernel_eval
from .series import CIRCULAR, TWO_PI, ObservedSeries


#: largest relative change of sigma_1 on the doubled grid that passes
_CHECK_RTOL = 1e-4


class OracleResolutionError(RuntimeError):
    """The quadrature grid is too coarse for the requested comparison."""


@dataclass(frozen=True, eq=False)
class GridOperator:
    """A pair density tabulated on a uniform grid.

    ``density[i, j]`` holds p(z_i, z_j); ``weight`` is the quadrature
    weight of one node.  Singular values of ``weight * density``
    approximate the singular values of the integral operator with
    kernel p.
    """

    grid: np.ndarray
    density: np.ndarray
    weight: float

    def singular_values(self, k: int | None = None) -> np.ndarray:
        s = np.linalg.svd(self.weight * self.density, compute_uv=False)
        return s if k is None else s[:k]

    def total_mass(self) -> float:
        """Discrete integral of the density over the grid square."""
        return float(self.weight**2 * self.density.sum())


def _kernel_profile(kernel: KernelSpec, grid: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """K_h(z - c) on the grid for each center, shape (len(grid), len(centers))."""
    diff = grid[:, None] - centers[None, :]
    if kernel.family == GAUSSIAN:
        h = kernel.bandwidth
        return np.exp(-0.5 * (diff / h) ** 2) / (SQRT_2PI * h)
    return kernel_eval(kernel, diff)


def empirical_grid_operator(
    series: ObservedSeries, kernel: KernelSpec, grid_size: int = 400
) -> GridOperator:
    """Tabulate the empirical smoothed pair density on a grid.

    Univariate only.  Linear data use a grid spanning the observation
    range widened by four bandwidths; circular data use a uniform grid
    on [0, 2*pi).
    """
    if series.dim != 1:
        raise ValueError("the grid oracle supports univariate series only")
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    pts = series.points[:, 0]
    if series.kind == CIRCULAR:
        grid = np.arange(grid_size) * (TWO_PI / grid_size)
        weight = TWO_PI / grid_size
    else:
        lo = pts.min() - 4.0 * kernel.bandwidth
        hi = pts.max() + 4.0 * kernel.bandwidth
        grid = np.linspace(lo, hi, grid_size)
        weight = (hi - lo) / (grid_size - 1)
    firsts, seconds = [], []
    for seq in series.sequences:
        firsts.append(seq[:-1, 0])
        seconds.append(seq[1:, 0])
    first = np.concatenate(firsts)
    second = np.concatenate(seconds)
    n = first.size
    u = _kernel_profile(kernel, grid, first)
    v = _kernel_profile(kernel, grid, second)
    density = u @ v.T / n
    return GridOperator(grid=grid, density=density, weight=weight)


def quadrature_svd_oracle(
    series: ObservedSeries,
    kernel: KernelSpec,
    grid_size: int = 400,
    k: int = 10,
) -> np.ndarray:
    """Leading singular values of the empirical smoothed operator,
    computed by discretizing its kernel on a grid.

    The computation is repeated on a doubled grid and the leading
    singular value must agree to ``_CHECK_RTOL`` relatively, otherwise
    the resolution is deemed insufficient.
    """
    sigma = empirical_grid_operator(series, kernel, grid_size).singular_values(k)
    fine = empirical_grid_operator(series, kernel, 2 * grid_size).singular_values(k)
    rel = abs(sigma[0] - fine[0]) / max(fine[0], 1e-300)
    if rel > _CHECK_RTOL:
        raise OracleResolutionError(
            f"grid of {grid_size} nodes is too coarse: leading singular value "
            f"moved by {rel:.2e} relative under refinement"
        )
    return fine


# ---------------------------------------------------------------------------
# Analytic product-form mixtures with Gaussian components
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianComponent:
    mean: float
    sd: float


@dataclass(frozen=True, eq=False)
class GaussianPairMixture:
    """Pair density p(z1, z2) = sum_l w_l f_l(z1) g_l(z2) with Gaussian
    f_l and g_l.

    Smoothing by a Gaussian kernel of bandwidth h turns every component
    sd into sqrt(sd^2 + h^2), so both the density and the operator
    spectrum stay in closed form.
    """

    weights: tuple
    f: tuple
    g: tuple

    def __post_init__(self):
        if not (len(self.weights) == len(self.f) == len(self.g)):
            raise ValueError("weights, f and g must have equal lengths")

    def smoothed(self, h: float) -> "GaussianPairMixture":
        return GaussianPairMixture(
            weights=self.weights,
            f=tuple(GaussianComponent(c.mean, np.hypot(c.sd, h)) for c in self.f),
            g=tuple(GaussianComponent(c.mean, np.hypot(c.sd, h)) for c in self.g),
        )

    def on_grid(self, lo: float, hi: float, grid_size: int) -> GridOperator:
        grid = np.linspace(lo, hi, grid_size)
        weight = (hi - lo) / (grid_size - 1)
        fv = np.stack([_normal_pdf(grid, c.mean, c.sd) for c in self.f])
        gv = np.stack([_normal_pdf(grid, c.mean, c.sd) for c in self.g])
        density = (np.asarray(self.weights)[:, None, None] * fv[:, :, None] * gv[:, None, :]).sum(0)
        return GridOperator(grid=grid, density=density, weight=weight)

    def exact_singular_values(self) -> np.ndarray:
        """Operator singular values via the component Gram matrices.

        The nonzero squared singular values of sum_l w_l g_l (x) f_l are
        the eigenvalues of D G_g D^T with D = diag(w) and G the inner
        product matrices, arranged symmetrically.
        """
        w = np.asarray(self.weights, dtype=float)
        gf = _component_gram(self.f)
        gg = _component_gram(self.g)
        rf = np.linalg.cholesky(gf + 1e-15 * np.eye(len(w)))
        # eigenvalues of diag(w) G_g diag(w) G_f, symmetrized
        a = rf.T @ (w[:, None] * gg * w[None, :]) @ rf
        lam = np.linalg.eigvalsh(0.5 * (a + a.T))[::-1]
        return np.sqrt(np.clip(lam, 0.0, None))


def _normal_pdf(x: np.ndarray, mean: float, sd: float) -> np.ndarray:
    return np.exp(-0.5 * ((x - mean) / sd) ** 2) / (SQRT_2PI * sd)


def _component_gram(components: tuple) -> np.ndarray:
    """Matrix of pairwise L2 inner products of Gaussian densities."""
    k = len(components)
    out = np.empty((k, k))
    for i, ci in enumerate(components):
        for j, cj in enumerate(components):
            var = ci.sd**2 + cj.sd**2
            out[i, j] = np.exp(-0.5 * (ci.mean - cj.mean) ** 2 / var) / np.sqrt(
                2.0 * np.pi * var
            )
    return out


def smoothing_bias_profile(
    mixture: GaussianPairMixture,
    bandwidths,
    grid_size: int = 1200,
    pad: float = 6.0,
) -> np.ndarray:
    """Sum of squared gaps between the singular values of the raw and
    smoothed operators, one value per bandwidth, all by quadrature."""
    k = len(mixture.weights)
    means = [c.mean for c in mixture.f] + [c.mean for c in mixture.g]
    sds = [c.sd for c in mixture.f] + [c.sd for c in mixture.g]
    h_max = max(bandwidths)
    lo = min(means) - pad * max(sds) - 4.0 * h_max
    hi = max(means) + pad * max(sds) + 4.0 * h_max
    sigma_raw = mixture.on_grid(lo, hi, grid_size).singular_values(k)
    out = []
    for h in bandwidths:
        sigma_h = mixture.smoothed(h).on_grid(lo, hi, grid_size).singular_values(k)
        out.append(float(np.sum((sigma_raw - sigma_h) ** 2)))
    return np.asarray(out)
