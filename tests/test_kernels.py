"""Kernel closed forms against quadrature, and bandwidth rules."""

import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import i0e, ive

from hmmorder.kernels import (
    GAUSSIAN_L2_SQ,
    _i0e,
    BandwidthRule,
    CustomKernel,
    KernelSpec,
    cross_gram,
    cross_gram_matrix,
    gram_column,
    gram_diagonal,
    kernel_eval,
    kernel_l2_norm_sq,
    select_bandwidth,
    silverman_kappa,
    vonmises_harmonics,
)
from hmmorder.series import ObservedSeries


def gaussian_kernel_h(z, c, h):
    return np.exp(-0.5 * ((z - c) / h) ** 2) / (np.sqrt(2 * np.pi) * h)


def quad_cross_gaussian(a, b, h):
    lo, hi = min(a, b) - 12 * h, max(a, b) + 12 * h
    val, _ = quad(
        lambda z: gaussian_kernel_h(z, a, h) * gaussian_kernel_h(z, b, h),
        lo,
        hi,
        points=[a, b],
        epsabs=1e-15,
        epsrel=1e-13,
        limit=500,
    )
    return val


def cross_gram_matrix_full(spec, points):
    """Reference Gram: every pairwise value evaluated on full N x N
    arrays, then the upper triangle mirrored.  The CustomKernel buffer
    starts zeroed, so its unevaluated lower triangle never trips the
    finiteness check."""
    pts = np.asarray(points, dtype=float)
    if isinstance(spec, CustomKernel):
        n = pts.shape[0]
        w = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                w[i, j] = spec.cross_gram_fn(pts[i], pts[j], spec.bandwidth)
    elif spec.family == "gaussian":
        h = spec.bandwidth
        sq = pts @ pts.T
        norms = np.diag(sq).copy()
        d2 = np.maximum(norms[:, None] + norms[None, :] - 2.0 * sq, 0.0)
        w = (4.0 * np.pi * h * h) ** (-spec.dim / 2.0) * np.exp(-d2 / (4.0 * h * h))
    else:
        kap = spec.concentration
        ang = pts[:, 0]
        c = np.abs(np.cos(0.5 * (ang[:, None] - ang[None, :])))
        w = i0e(2.0 * kap * c) * np.exp(2.0 * kap * (c - 1.0))
        w /= 2.0 * np.pi * float(i0e(kap)) ** 2
    if not np.all(np.isfinite(w)):
        i, j = np.argwhere(~np.isfinite(w))[0]
        raise FloatingPointError(
            f"non-finite kernel value for points {i} and {j} (bandwidth {spec.bandwidth})"
        )
    upper = np.triu(w)
    return upper + np.triu(w, 1).T


def rotated(angles, shift):
    """Angles turned by ``shift`` radians, back in [0, 2*pi)."""
    return np.mod(angles + shift, 2 * np.pi)


def gaussian_cross(a, b, h):
    d = len(a)
    return (4 * np.pi * h * h) ** (-d / 2) * np.exp(-np.sum((a - b) ** 2) / (4 * h * h))


def quad_cross_vonmises(a, b, h):
    spec = KernelSpec("vonmises", h)
    val, _ = quad(
        lambda z: kernel_eval(spec, z - a) * kernel_eval(spec, z - b),
        0.0,
        2 * np.pi,
        points=[a % (2 * np.pi), b % (2 * np.pi)],
        epsabs=1e-14,
        epsrel=1e-12,
        limit=400,
    )
    return val


class TestI0e:
    """The package's numpy I0e against scipy.special.i0e, bit for bit."""

    EDGES = (0.0, 8.0, float(np.nextafter(8.0, np.inf)))

    @staticmethod
    def draws():
        rng = np.random.default_rng(51)
        return {
            "[0, 8]": rng.uniform(0.0, 8.0, 100_000),
            "(8, 100]": 100.0 - rng.uniform(0.0, 92.0, 100_000),
            "log-uniform to 1e300": np.exp(rng.uniform(np.log(1e-300), np.log(1e300), 100_000)),
        }

    def test_arrays_match_scipy(self):
        for label, x in {**self.draws(), "edges": np.array(self.EDGES)}.items():
            assert np.array_equal(_i0e(x), i0e(x)), label
        grid = np.array(self.EDGES).reshape(3, 1) * np.ones((1, 2))
        assert _i0e(grid).shape == (3, 2) and np.array_equal(_i0e(grid), i0e(grid))

    def test_scalars_match_scipy(self):
        for x in self.EDGES + tuple(v[:200:10] for v in self.draws().values()):
            for v in np.atleast_1d(x):
                got = _i0e(float(v))
                assert np.ndim(got) == 0 and got == i0e(float(v)), v


def omitted_harmonics(kap, m_top=4000):
    """(1/pi) sum_{m>M} rho_m^2 for M = 0..m_top - 1, rho_m from
    scipy.special.ive, each sum taken from its smallest term."""
    m = np.arange(1, m_top + 1)
    sq = (ive(m, kap) / ive(0, kap)) ** 2
    return np.cumsum(sq[::-1])[::-1] / np.pi


class TestVonmisesHarmonics:
    """The Fourier weights rho_m = I_m(kap)/I_0(kap) of the von Mises
    cross inner product, and the count M of the stop rule."""

    @pytest.mark.parametrize("kap", [1e-3, 0.5, 12.6, 40.0, 100.0])
    def test_ratios_match_scipy(self, kap):
        tol = 2001 * np.finfo(float).eps * KernelSpec("vonmises", kap**-0.5)._diag
        rho = vonmises_harmonics(kap, tol, 1000)
        m = np.arange(1, rho.size + 1)
        assert rho.size >= 1
        assert np.max(np.abs(rho / (ive(m, kap) / ive(0, kap)) - 1.0)) <= 1e-13

    @pytest.mark.parametrize("kap", [0.5, 8.4, 12.6, 40.0, 100.0])
    @pytest.mark.parametrize("n", [601, 2001, 64001])
    def test_count_is_minimal_under_the_stop_rule(self, kap, n):
        tol = n * np.finfo(float).eps * KernelSpec("vonmises", kap**-0.5)._diag
        count = vonmises_harmonics(kap, tol, (n - 1) // 2).size
        omitted = omitted_harmonics(kap)
        assert omitted[count] <= tol
        assert count == 0 or omitted[count - 1] > tol

    def test_series_reproduces_the_closed_form(self):
        spec = KernelSpec("vonmises", 0.3)
        rho = vonmises_harmonics(spec.concentration, 1e-17, 100)
        d = np.linspace(0.0, np.pi, 7)
        harmonics = np.cos(np.outer(d, np.arange(1, rho.size + 1)))
        series = (1.0 + 2.0 * harmonics @ rho**2) / (2 * np.pi)
        exact = [cross_gram(spec, [0.0], [v]) for v in d]
        assert np.allclose(series, exact, rtol=0.0, atol=1e-15 * spec._diag)

    def test_none_when_more_than_m_max_harmonics_are_needed(self):
        kap = 0.003**-2  # about 5800 features
        assert vonmises_harmonics(kap, 1e-13, 500) is None
        tol = 1e-13
        count = vonmises_harmonics(10.0, tol, 1000).size
        assert vonmises_harmonics(10.0, tol, count - 1) is None
        assert vonmises_harmonics(10.0, tol, count).size == count

    def test_uniform_kernel_has_no_harmonics(self):
        assert vonmises_harmonics(0.0, 1e-13, 100).size == 0


class TestKernelEval:
    def test_gaussian_at_mode(self):
        assert kernel_eval(KernelSpec("gaussian", 1.0), 0.0) == pytest.approx(
            0.3989422804014327, abs=1e-12
        )

    def test_gaussian_symmetry(self):
        spec = KernelSpec("gaussian", 1.0)
        assert kernel_eval(spec, -1.0) == kernel_eval(spec, 1.0)

    def test_vonmises_integrates_to_one(self):
        spec = KernelSpec("vonmises", 1.0)
        val, _ = quad(lambda u: kernel_eval(spec, u), 0.0, 2 * np.pi, limit=200)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_vonmises_small_bandwidth_no_overflow(self):
        spec = KernelSpec("vonmises", 0.02)  # concentration 2500
        vals = kernel_eval(spec, np.linspace(0, 2 * np.pi, 7))
        assert np.all(np.isfinite(vals))
        val, _ = quad(
            lambda u: kernel_eval(spec, u), -np.pi, np.pi, points=[0.0], limit=400
        )
        assert val == pytest.approx(1.0, rel=1e-8)

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError):
            kernel_eval(KernelSpec("gaussian", 1.0), np.nan)


class TestCrossGram:
    def test_coincident_points_gaussian(self):
        got = cross_gram(KernelSpec("gaussian", 1.0), [0.3], [0.3])
        assert got == pytest.approx(quad_cross_gaussian(0.3, 0.3, 1.0), rel=1e-10)
        assert got == pytest.approx(0.2820948, abs=1e-7)

    def test_separated_points_gaussian(self):
        got = cross_gram(KernelSpec("gaussian", 1.0), [0.0], [2.0])
        assert got == pytest.approx(quad_cross_gaussian(0.0, 2.0, 1.0), rel=1e-10)
        assert got == pytest.approx(0.1037769, abs=1e-7)

    def test_product_kernel_separability(self):
        spec2 = KernelSpec("gaussian", 0.7, dim=2)
        spec1 = KernelSpec("gaussian", 0.7, dim=1)
        a, b = np.array([0.2, -1.0]), np.array([1.1, 0.4])
        prod = cross_gram(spec1, a[:1], b[:1]) * cross_gram(spec1, a[1:], b[1:])
        assert cross_gram(spec2, a, b) == pytest.approx(prod, rel=1e-12)

    def test_vonmises_coincident(self):
        from scipy.special import i0

        got = cross_gram(KernelSpec("vonmises", 1.0), [1.2], [1.2])
        assert got == pytest.approx(i0(2.0) / (2 * np.pi * i0(1.0) ** 2), rel=1e-12)
        assert got == pytest.approx(quad_cross_vonmises(1.2, 1.2, 1.0), rel=1e-10)

    @pytest.mark.parametrize("h", [0.2, 0.5, 1.0])
    def test_gaussian_matches_quadrature(self, h):
        rng = np.random.default_rng(42)
        for _ in range(100):
            a = rng.uniform(-3, 3)
            b = a + rng.uniform(-6 * h, 6 * h)
            got = cross_gram(KernelSpec("gaussian", h), [a], [b])
            assert got == pytest.approx(quad_cross_gaussian(a, b, h), rel=1e-8)

    @pytest.mark.parametrize("h", [0.2, 0.5, 1.0])
    def test_vonmises_matches_quadrature(self, h):
        rng = np.random.default_rng(43)
        for _ in range(100):
            a, b = rng.uniform(0, 2 * np.pi, 2)
            got = cross_gram(KernelSpec("vonmises", h), [a], [b])
            assert got == pytest.approx(quad_cross_vonmises(a, b, h), rel=1e-8)

    def test_symmetry_and_peak_dominance(self):
        rng = np.random.default_rng(44)
        spec = KernelSpec("gaussian", 0.5)
        for _ in range(50):
            a, b = rng.normal(0, 1, 2)
            ab = cross_gram(spec, [a], [b])
            assert ab == cross_gram(spec, [b], [a])
            assert ab <= cross_gram(spec, [a], [a]) + 1e-15

    def test_gaussian_bandwidth_scaling(self):
        # phi_h(a, b) = h^-d phi_1(a/h, b/h)
        rng = np.random.default_rng(45)
        for h in (0.2, 0.5, 2.0):
            for _ in range(10):
                a, b = rng.normal(0, 1, 2)
                lhs = cross_gram(KernelSpec("gaussian", h), [a], [b])
                rhs = cross_gram(KernelSpec("gaussian", 1.0), [a / h], [b / h]) / h
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cross_gram(KernelSpec("gaussian", 1.0, dim=2), [0.0], [0.0, 1.0])

    def test_matrix_agrees_with_scalar(self):
        # two separate closed forms: cross_gram runs the column evaluator,
        # which writes the von Mises c - 1 as -sin^2 / (1 + c); the
        # angles span six bandwidths, down to 1e-8 of the peak value
        rng = np.random.default_rng(46)
        cases = [(KernelSpec("gaussian", 0.6, dim=2), rng.normal(0, 1, (8, 2)))]
        for h in (1.0, 0.3, 0.1, 0.05):
            cases.append((KernelSpec("vonmises", h), rng.uniform(1.0, 1.0 + 6 * h, (8, 1))))
        for spec, pts in cases:
            w = cross_gram_matrix(spec, pts)
            for i in range(8):
                for j in range(8):
                    assert w[i, j] == pytest.approx(
                        cross_gram(spec, pts[i], pts[j]), rel=1e-10
                    )
            assert np.array_equal(w, w.T)

    def test_vonmises_matrix_periodicity(self):
        spec = KernelSpec("vonmises", 0.5)
        pts = np.array([[0.1], [6.2]])  # nearly identical angles across the wrap
        w = cross_gram_matrix(spec, pts)
        near = cross_gram(spec, [0.1], [0.1 - (2 * np.pi - 6.1)])
        assert w[0, 1] == pytest.approx(near, rel=1e-12)
        assert w[0, 1] > 0.5 * w[0, 0]


class TestCustomKernel:
    def test_matches_builtin_pipeline(self):
        from hmmorder.estimator import estimate_order
        from hmmorder.kernels import CustomKernel
        from hmmorder.simulate import shift_scenario, simulate

        series, _ = simulate(shift_scenario(delta=5.0), 150, seed=9)
        builtin = estimate_order(series)
        custom = estimate_order(
            series,
            kernel=CustomKernel(
                cross_gram_fn=gaussian_cross,
                bandwidth=1.0,
                l2_sq=GAUSSIAN_L2_SQ,
            ),
            bandwidth=builtin.bandwidth,
        )
        assert custom.l_hat == builtin.l_hat
        assert np.allclose(custom.r_values, builtin.r_values, rtol=1e-10)

    def test_vonmises_custom_kernel_matches_builtin(self):
        # a BandwidthRule gives a custom kernel on angles the scale of
        # the data kind, kappa = 1, as it does the built-in kernel
        from hmmorder.estimator import estimate_order
        from hmmorder.simulate import get_scenario, simulate

        series, _ = simulate(get_scenario("vm3"), 200, seed=1)
        custom = CustomKernel(
            cross_gram_fn=lambda a, b, h: cross_gram(KernelSpec("vonmises", h), a, b),
            bandwidth=1.0,
        )
        for angles in (series.points[:, 0], rotated(series.points[:, 0], 1.0)):
            circ = ObservedSeries.from_points(angles, kind="circular")
            builtin = estimate_order(circ)
            est = estimate_order(circ, kernel=custom, bandwidth=BandwidthRule())
            assert est.bandwidth == builtin.bandwidth == 200 ** (-1.0 / 6.0)
            assert est.l_hat == builtin.l_hat == 2
            assert np.allclose(est.r_values, builtin.r_values, rtol=1e-10)

    def test_l2_norm_requires_declaration(self):
        from hmmorder.kernels import CustomKernel

        kernel = CustomKernel(cross_gram_fn=gaussian_cross, bandwidth=0.5)
        with pytest.raises(ValueError, match="L2 norm"):
            kernel_l2_norm_sq(kernel)

    def test_gram_matrix_symmetric(self):
        from hmmorder.kernels import CustomKernel

        rng = np.random.default_rng(50)
        pts = rng.normal(0, 1, (10, 1))
        kernel = CustomKernel(cross_gram_fn=gaussian_cross, bandwidth=0.7)
        w = cross_gram_matrix(kernel, pts)
        assert np.array_equal(w, w.T)
        ref = cross_gram_matrix(KernelSpec("gaussian", 0.7), pts)
        assert np.allclose(w, ref, rtol=1e-12)


#: Gram sizes the full-matrix references are checked at
EDGE_SIZES = (1, 2, 63, 64, 65, 131)

GRAM_CASES = {
    "gaussian-d1": (KernelSpec("gaussian", 0.4), "linear"),
    "gaussian-d2": (KernelSpec("gaussian", 0.6, dim=2), "linear"),
    "gaussian-d3": (KernelSpec("gaussian", 0.8, dim=3), "linear"),
    "vonmises": (KernelSpec("vonmises", 0.5), "circular"),
    "custom": (CustomKernel(cross_gram_fn=gaussian_cross, bandwidth=0.4), "linear"),
}


def gram_points(rng, n, dim, kind):
    if kind == "circular":
        return rng.uniform(0, 2 * np.pi, (n, 1))
    return 2.0 * rng.standard_normal((n, dim))


class TestBlockedGram:
    """The Gram against the full-matrix reference."""

    @pytest.mark.parametrize("n", EDGE_SIZES)
    @pytest.mark.parametrize("case", sorted(GRAM_CASES))
    def test_bit_identical_to_full_matrix(self, case, n):
        spec, kind = GRAM_CASES[case]
        pts = gram_points(np.random.default_rng(n), n, spec.dim, kind)
        w = cross_gram_matrix(spec, pts)
        assert w.shape == (n, n) and w.flags.c_contiguous
        assert np.array_equal(w, cross_gram_matrix_full(spec, pts))
        assert np.array_equal(w, w.T)

    def test_custom_kernel_called_once_per_upper_pair(self):
        calls = []

        def fn(a, b, h):
            calls.append((float(a[0]), float(b[0])))
            return gaussian_cross(a, b, h)

        n = 69
        pts = np.arange(n, dtype=float)[:, None]
        cross_gram_matrix(CustomKernel(cross_gram_fn=fn, bandwidth=3.0), pts)
        assert calls == [(i, j) for i in range(n) for j in range(i, n)]

    def test_custom_kernel_ignores_stale_memory(self):
        # a freed all-NaN buffer of the same size is what np.empty hands
        # back; the unevaluated lower triangle must never be checked
        n = 30
        del_me = np.full((n, n), np.nan)
        del del_me
        pts = np.random.default_rng(7).standard_normal((n, 1))
        kernel = CustomKernel(cross_gram_fn=gaussian_cross, bandwidth=0.5)
        w = cross_gram_matrix(kernel, pts)
        assert np.all(np.isfinite(w))
        assert np.array_equal(w, cross_gram_matrix_full(kernel, pts))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("where", [0, 63, 69, "last"])
    @pytest.mark.parametrize("case", ["gaussian-d1", "gaussian-d2", "vonmises"])
    def test_non_finite_point_reports_same_pair(self, case, where):
        spec, kind = GRAM_CASES[case]
        n = 131
        pts = gram_points(np.random.default_rng(3), n, spec.dim, kind)
        pts[n - 1 if where == "last" else where, 0] = np.inf
        with pytest.raises(FloatingPointError) as want:
            cross_gram_matrix_full(spec, pts)
        with pytest.raises(FloatingPointError) as got:
            cross_gram_matrix(spec, pts)
        assert str(got.value) == str(want.value)

    def test_custom_non_finite_reports_first_upper_pair(self):
        n = 131
        bad = {(66, 128), (63, 65)}

        def fn(a, b, h):
            if (int(a[0]), int(b[0])) in bad:
                return np.nan
            return 1.0

        pts = np.arange(n, dtype=float)[:, None]
        with pytest.raises(FloatingPointError, match="points 63 and 65 "):
            cross_gram_matrix(CustomKernel(cross_gram_fn=fn, bandwidth=1.0), pts)


class TestGramColumns:
    """Single Gram columns and the diagonal, for the factor path."""

    @pytest.mark.parametrize("case", sorted(GRAM_CASES))
    def test_columns_match_the_dense_gram(self, case):
        spec, kind = GRAM_CASES[case]
        n = 131
        pts = gram_points(np.random.default_rng(31), n, spec.dim, kind)
        w = cross_gram_matrix(spec, pts)
        tol = dict(rtol=1e-12, atol=1e-15 * np.max(w))
        for j in (0, 64, n - 1):
            assert np.allclose(gram_column(spec, pts, j), w[:, j], **tol)
        assert np.allclose(gram_diagonal(spec, pts), np.diag(w), **tol)

    @pytest.mark.parametrize("shift", [1e3, 1e5])
    def test_gaussian_column_ignores_a_common_shift(self, shift):
        # direct differences cancel the shift; |a|^2 + |b|^2 - 2 a.b
        # would leave rounding of order eps * shift^2 in each distance
        spec = KernelSpec("gaussian", 0.4, dim=2)
        pts = gram_points(np.random.default_rng(32), 50, 2, "linear")
        for j in (0, 49):
            got = gram_column(spec, pts + shift, j)
            assert np.allclose(got, gram_column(spec, pts, j), rtol=1e-9, atol=0.0)

    def test_vonmises_column_keeps_relative_accuracy_at_high_concentration(self):
        # at kappa = 1.1e5 the row fill's 2 * kappa * (c - 1) multiplies
        # the rounding of c by kappa (1.2e-11 relative here); the column
        # is checked against c - 1 formed in extended precision
        spec = KernelSpec("vonmises", 0.003)
        kap = spec.concentration
        ang = 1.0 + 0.004 * np.random.default_rng(5).standard_normal(200)
        wide = ang.astype(np.longdouble)
        for j in (0, 7):
            c = np.abs(np.cos(0.5 * (wide - wide[j])))
            ref = i0e(2.0 * kap * c.astype(float)) * np.exp(2.0 * kap * (c - 1)).astype(float)
            ref /= 2.0 * np.pi * float(i0e(kap)) ** 2
            col = gram_column(spec, ang[:, None], j)
            assert np.max(np.abs(col / ref - 1.0)) <= 1e-13

    @pytest.mark.parametrize(
        ("family", "dim"), [("gaussian", 1), ("gaussian", 3), ("vonmises", 1)]
    )
    def test_diagonal_is_the_column_at_its_own_point(self, family, dim):
        # h**2 and h * h round apart at this bandwidth, and the diagonal
        # once spelled the Gaussian constant with h**2
        spec = KernelSpec(family, 0.2599207055766236, dim=dim)
        kind = "circular" if family == "vonmises" else "linear"
        pts = gram_points(np.random.default_rng(34), 6, dim, kind)
        diag = gram_diagonal(spec, pts)
        for j in range(6):
            assert gram_column(spec, pts, j)[j] == diag[j]

    def test_custom_kernel_called_once_per_entry(self):
        calls = []

        def fn(a, b, h):
            calls.append((float(a[0]), float(b[0])))
            return gaussian_cross(a, b, h)

        n = 7
        pts = np.arange(n, dtype=float)[:, None]
        kernel = CustomKernel(cross_gram_fn=fn, bandwidth=3.0)
        gram_column(kernel, pts, 4)
        assert calls == [(i, 4) for i in range(n)]
        calls.clear()
        gram_diagonal(kernel, pts)
        assert calls == [(i, i) for i in range(n)]

    @pytest.mark.parametrize("case", ["gaussian-d1", "vonmises"])
    def test_non_finite_value_is_reported(self, case):
        spec, kind = GRAM_CASES[case]
        pts = gram_points(np.random.default_rng(33), 20, spec.dim, kind)
        pts[5, 0] = np.nan
        with pytest.raises(FloatingPointError, match="points 5 and 2 "):
            gram_column(spec, pts, 2)
        with pytest.raises(FloatingPointError, match="points 0 and 5 "):
            gram_column(spec, pts, 5)

    def test_custom_non_finite_value_is_reported(self):
        def fn(a, b, h):
            return np.nan if a[0] == 5.0 else 1.0

        pts = np.arange(20, dtype=float)[:, None]
        kernel = CustomKernel(cross_gram_fn=fn, bandwidth=1.0)
        with pytest.raises(FloatingPointError, match="points 5 and 2 "):
            gram_column(kernel, pts, 2)
        with pytest.raises(FloatingPointError, match="points 5 and 5 "):
            gram_diagonal(kernel, pts)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="points must be"):
            gram_column(KernelSpec("gaussian", 0.5, dim=2), np.zeros((4, 3)), 0)


class TestKernelNorms:
    def test_gaussian_l2_quadrature(self):
        spec = KernelSpec("gaussian", 1.0)
        val, _ = quad(lambda u: kernel_eval(spec, u) ** 2, -12, 12, limit=200)
        assert kernel_l2_norm_sq(spec) == pytest.approx(val, rel=1e-10)
        assert kernel_l2_norm_sq(spec) == pytest.approx(GAUSSIAN_L2_SQ, rel=1e-15)

    def test_gaussian_l2_equals_coincident_cross_gram(self):
        spec = KernelSpec("gaussian", 1.0)
        assert kernel_l2_norm_sq(spec) == pytest.approx(
            cross_gram(spec, [0.0], [0.0]), rel=1e-14
        )

    def test_vonmises_l2_quadrature(self):
        spec = KernelSpec("vonmises", 1.0)
        val, _ = quad(lambda u: kernel_eval(spec, u) ** 2, 0, 2 * np.pi, limit=200)
        assert kernel_l2_norm_sq(spec) == pytest.approx(val, rel=1e-10)


class TestBandwidth:
    def test_power_rule_arithmetic(self):
        series = ObservedSeries.from_points(np.linspace(0, 1, 4097))
        rule = BandwidthRule(beta=1 / 6, kappa=0.9)
        assert select_bandwidth(rule, series) == pytest.approx(0.225, rel=1e-12)

    def test_auto_kappa_univariate(self):
        # sd == 1 and IQR == 1.34 make both branches equal, so kappa = 0.9
        rng = np.random.default_rng(47)
        y = rng.standard_normal(4001)
        y = (y - y.mean()) / y.std(ddof=1)
        q1, q3 = np.quantile(y, 0.25), np.quantile(y, 0.75)
        y = np.where(y < q1 + 1e-12, y * (1.34 / (q3 - q1)), y * (1.34 / (q3 - q1)))
        series = ObservedSeries.from_points(y)
        kappa = silverman_kappa(series)
        sd = np.std(y, ddof=1)
        iqr = np.quantile(y, 0.75) - np.quantile(y, 0.25)
        assert kappa == pytest.approx(0.9 * min(sd, iqr / 1.34), rel=1e-12)

    def test_vonmises_schedule(self):
        series = ObservedSeries.from_points(
            np.linspace(0, 6.0, 8767), kind="circular"
        )
        h = select_bandwidth(BandwidthRule(), series)
        assert h == 8766 ** (-1.0 / 6.0)
        # kappa stays 1 when only beta is set
        h = select_bandwidth(BandwidthRule(beta=0.2), series)
        assert h == 8766**-0.2

    def test_circular_default_is_rotation_invariant(self):
        # Silverman's rule on the raw angles would give 0.553 here, and
        # 0.555 once the angles are rotated by 1 rad
        from hmmorder.simulate import get_scenario, simulate

        series, _ = simulate(get_scenario("vm3"), 500, seed=1)
        rot = ObservedSeries.from_points(
            rotated(series.points[:, 0], 1.0), kind="circular"
        )
        assert select_bandwidth(BandwidthRule(), series) == 500 ** (-1.0 / 6.0)
        assert select_bandwidth(BandwidthRule(), rot) == 500 ** (-1.0 / 6.0)

    def test_order_invariance(self):
        rng = np.random.default_rng(48)
        y = rng.normal(0, 2, 500)
        s1 = ObservedSeries.from_points(y)
        s2 = ObservedSeries.from_points(y[::-1].copy())
        rule = BandwidthRule(beta=1 / 6)
        assert select_bandwidth(rule, s1) == select_bandwidth(rule, s2)

    def test_degenerate_series_rejected(self):
        series = ObservedSeries.from_points(np.zeros(10))
        with pytest.raises(ValueError, match="degenerate"):
            select_bandwidth(BandwidthRule(beta=1 / 6), series)

    def test_default_rules(self):
        rng = np.random.default_rng(49)
        for dim, beta in ((1, 1 / 6), (2, 1 / 8), (3, 1 / 10)):
            series = ObservedSeries.from_points(rng.normal(0, 2, (701, dim)))
            kappa = silverman_kappa(series)
            h = select_bandwidth(BandwidthRule(), series)
            assert h == kappa * 700 ** (-1.0 / (4.0 + 2.0 * dim))
            assert h == pytest.approx(kappa * 700 ** (-beta), rel=1e-15)

    @pytest.mark.parametrize(
        ("family", "h", "dim"),
        [
            ("gaussian", 1e-170, 1),
            ("gaussian", 1e-170, 3),
            ("gaussian", 1e200, 1),
            ("gaussian", 1e200, 3),
            ("vonmises", 1e-170, 1),
        ],
    )
    def test_out_of_range_bandwidth_rejected(self, family, h, dim):
        # 4 pi h^2 underflows to 0 or overflows, h^-3 overflows, or the
        # concentration 1/h^2 overflows
        with pytest.raises(ValueError, match=re.escape(f"bandwidth {h} is out of range")):
            KernelSpec(family, h, dim)

    def test_subnormal_gaussian_variance_rejected(self):
        # 4 pi h^2 is subnormal below h = 4.2e-155; at h = 1e-160 the
        # constant (4 pi h^2)^(-1/2) came out 7.5e-6 off
        with pytest.raises(ValueError, match=re.escape("bandwidth 1e-160 is out of range")):
            KernelSpec("gaussian", 1e-160)
        spec = KernelSpec("gaussian", 1e-150)
        assert spec._norm == pytest.approx(1e150 / np.sqrt(4.0 * np.pi), rel=1e-15)

    @pytest.mark.parametrize(("dim", "h"), [(2, 3e153), (3, 2e102), (3, 1e107)])
    def test_subnormal_gaussian_constant_rejected(self, dim, h):
        # (4 pi h^2)^(-d/2) is subnormal here: 8.8e-309 at d = 2, and
        # 2.8e-309 and 2.5e-323 at d = 3, the last 10% off its exact value
        with pytest.raises(ValueError, match=re.escape(f"bandwidth {h} is out of range")):
            KernelSpec("gaussian", h, dim=dim)

    @pytest.mark.parametrize(("dim", "h"), [(2, 1.8e153), (3, 1e102)])
    def test_top_of_the_gaussian_range_keeps_a_normal_constant(self, dim, h):
        spec = KernelSpec("gaussian", h, dim=dim)
        assert spec._norm >= np.finfo(float).tiny
        assert spec._norm == pytest.approx((4.0 * np.pi) ** (-dim / 2) / h**dim, rel=1e-15)

    def test_vonmises_huge_bandwidth_is_the_uniform_kernel(self):
        # the concentration underflows to 0, which is a proper kernel
        spec = KernelSpec("vonmises", 1e200)
        assert spec.concentration == 0.0
        w = cross_gram_matrix(spec, np.array([[0.0], [2.0]]))
        assert np.allclose(w, 1.0 / (2.0 * np.pi), rtol=1e-15, atol=0.0)
        assert kernel_l2_norm_sq(spec) == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-15)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            KernelSpec("gaussian", -1.0)
        with pytest.raises(ValueError):
            KernelSpec("vonmises", 1.0, dim=2)
        with pytest.raises(ValueError):
            KernelSpec("triweight", 1.0)
        with pytest.raises(ValueError):
            BandwidthRule(beta=-0.1)
        with pytest.raises(ValueError):
            BandwidthRule(kappa=0.0)
