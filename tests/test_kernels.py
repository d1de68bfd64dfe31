"""Kernel closed forms against quadrature, and bandwidth rules."""

import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import i0e

from hmmorder.kernels import (
    GAUSSIAN_L2_SQ,
    GRAM_BLOCK,
    BandwidthRule,
    CustomKernel,
    KernelSpec,
    cross_gram,
    cross_gram_matrix,
    kernel_eval,
    kernel_l2_norm_sq,
    select_bandwidth,
    silverman_kappa,
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
        rng = np.random.default_rng(46)
        pts = rng.normal(0, 1, (8, 2))
        spec = KernelSpec("gaussian", 0.6, dim=2)
        w = cross_gram_matrix(spec, pts)
        for i in range(8):
            for j in range(8):
                assert w[i, j] == pytest.approx(cross_gram(spec, pts[i], pts[j]), rel=1e-10)
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
        builtin = estimate_order(series, kernel="gaussian")
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


BLOCK_EDGE_SIZES = (1, 2, GRAM_BLOCK - 1, GRAM_BLOCK, GRAM_BLOCK + 1, 2 * GRAM_BLOCK + 3)

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
    """The row-block Gram against the full-matrix reference."""

    @pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
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

        n = GRAM_BLOCK + 5
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
    @pytest.mark.parametrize("where", [0, GRAM_BLOCK - 1, GRAM_BLOCK + 5, "last"])
    @pytest.mark.parametrize("case", ["gaussian-d1", "gaussian-d2", "vonmises"])
    def test_non_finite_point_reports_same_pair(self, case, where):
        spec, kind = GRAM_CASES[case]
        n = 2 * GRAM_BLOCK + 3
        pts = gram_points(np.random.default_rng(3), n, spec.dim, kind)
        pts[n - 1 if where == "last" else where, 0] = np.inf
        with pytest.raises(FloatingPointError) as want:
            cross_gram_matrix_full(spec, pts)
        with pytest.raises(FloatingPointError) as got:
            cross_gram_matrix(spec, pts)
        assert str(got.value) == str(want.value)

    def test_custom_non_finite_reports_first_upper_pair(self):
        n = 2 * GRAM_BLOCK + 3
        bad = {(GRAM_BLOCK + 2, 2 * GRAM_BLOCK), (GRAM_BLOCK - 1, GRAM_BLOCK + 1)}

        def fn(a, b, h):
            if (int(a[0]), int(b[0])) in bad:
                return np.nan
            return 1.0

        pts = np.arange(n, dtype=float)[:, None]
        with pytest.raises(
            FloatingPointError,
            match=f"points {GRAM_BLOCK - 1} and {GRAM_BLOCK + 1} ",
        ):
            cross_gram_matrix(CustomKernel(cross_gram_fn=fn, bandwidth=1.0), pts)

    @pytest.mark.parametrize("case", ["gaussian-d1", "vonmises"])
    def test_peak_memory_one_output_plus_blocks(self, case):
        spec, kind = GRAM_CASES[case]
        n = 1500
        pts = gram_points(np.random.default_rng(11), n, spec.dim, kind)
        cross_gram_matrix(spec, pts[:10])  # loads scipy outside the trace
        tracemalloc.start()
        try:
            w = cross_gram_matrix(spec, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.nbytes == 8 * n * n
        # the full-matrix form peaks at about six N x N arrays
        assert peak <= w.nbytes + 8 * (8 * GRAM_BLOCK * n)


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
        rule = BandwidthRule.default_for(1, "vonmises")
        series = ObservedSeries.from_points(
            np.linspace(0, 6.0, 8767), kind="circular"
        )
        assert select_bandwidth(rule, series) == pytest.approx(8766 ** (-1 / 6), rel=1e-12)

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
        assert BandwidthRule.default_for(1).beta == pytest.approx(1 / 6)
        assert BandwidthRule.default_for(2).beta == pytest.approx(1 / 8)
        assert BandwidthRule.default_for(3).beta == pytest.approx(1 / 10)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            KernelSpec("gaussian", -1.0)
        with pytest.raises(ValueError):
            KernelSpec("vonmises", 1.0, dim=2)
        with pytest.raises(ValueError):
            KernelSpec("triweight", 1.0)
        with pytest.raises(ValueError):
            BandwidthRule(beta=-0.1)
