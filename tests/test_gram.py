"""Gram pipeline: selectors, PSD square root, pivoted Cholesky factor,
pair product, spectra."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmmorder.gram import (
    FULL_SVD_MAX_N,
    PairSelectors,
    build_gram,
    build_selectors,
    build_shifted_product,
    cholesky_factor,
    estimate_operator_matrix,
    pair_moments,
    psd_sqrt,
    singular_spectrum,
    vonmises_features,
)
from hmmorder.estimator import count_exceedances, estimate_order, tail_stats
from hmmorder.kernels import (
    BandwidthRule,
    CustomKernel,
    KernelSpec,
    cross_gram,
    cross_gram_matrix,
    gram_column,
    gram_diagonal,
    select_bandwidth,
)
from hmmorder.series import ObservedSeries
from hmmorder.simulate import get_scenario, simulate
from hmmorder.spectral import moment_matrix

from test_kernels import EDGE_SIZES, cross_gram_matrix_full, gaussian_cross, omitted_harmonics
from test_spectral import brute_force_nhat


def psd_sqrt_full(w):
    """Reference square root: symmetry check and symmetrisation on full
    N x N temporaries."""
    w = np.asarray(w, dtype=float)
    asym = np.max(np.abs(w - w.T)) if w.size else 0.0
    if asym > 1e-10 * max(1.0, np.max(np.abs(w))):
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    lam, q = np.linalg.eigh(w)
    lam = np.clip(lam, 0.0, None)
    m = (q * np.sqrt(lam)) @ q.T
    return 0.5 * (m + m.T)


def pair_indices(sel):
    """Pooled indices of the first member of every pair of ``sel``."""
    return np.concatenate([np.arange(a, b - 1) for a, b in sel.runs])


def shifted_product_full(m, sel):
    """Reference N x N product (1/n) M S M of the symmetric square root,
    with M's columns picked by the second and its rows by the first
    member of each pair."""
    first = pair_indices(sel)
    return m[:, first + 1] @ m[first, :] / sel.n_pairs


def gathered_product(f, sel):
    """Reference pair product (1/n) F[second]^T F[first] from gathered
    rows, one product over all pairs."""
    first = pair_indices(sel)
    return f[first + 1].T @ f[first] / sel.n_pairs


def random_series(rng, n_points, dim=1, kind="linear"):
    if kind == "circular":
        return ObservedSeries.from_points(
            rng.uniform(0, 2 * np.pi, n_points), kind=kind
        )
    return ObservedSeries.from_points(np.cumsum(rng.standard_normal((n_points, dim)), 0))


class TestSelectors:
    def test_single_sequence(self):
        series = ObservedSeries.from_points(np.arange(3.0))
        sel = build_selectors(series)
        assert sel.runs == ((0, 3),)
        assert sel.n_pairs == 2

    def test_two_sequences_skip_boundary(self):
        series = ObservedSeries(sequences=(np.arange(3.0), np.arange(2.0)))
        sel = build_selectors(series)
        assert sel.runs == ((0, 3), (3, 5))
        assert pair_indices(sel).tolist() == [0, 1, 3]
        assert sel.n_pairs == 3

    def test_minimal_sequence(self):
        series = ObservedSeries.from_points(np.array([1.0, 2.0]))
        sel = build_selectors(series)
        assert sel.runs == ((0, 2),)
        assert sel.n_pairs == 1

    def test_pairs_are_consecutive(self):
        # the runs tile the pooled points in order, one per sequence
        rng = np.random.default_rng(0)
        series = ObservedSeries(
            sequences=tuple(rng.standard_normal(k) for k in (5, 2, 7))
        )
        sel = build_selectors(series)
        assert sel.runs == ((0, 5), (5, 7), (7, 14))
        assert sel.n_pairs == series.n_pairs

    @pytest.mark.parametrize("runs", [(), ((0, 1),), ((0, 3), (3, 3))])
    def test_rejects_runs_without_pairs(self, runs):
        with pytest.raises(ValueError, match="two points"):
            PairSelectors(runs)


class TestBuildGram:
    def test_single_point_pair(self):
        series = ObservedSeries.from_points(np.array([0.7, 0.7]))
        spec = KernelSpec("gaussian", 0.5)
        w = build_gram(series, spec)
        assert w.shape == (2, 2)
        assert w[0, 0] == pytest.approx(cross_gram(spec, [0.7], [0.7]), rel=1e-14)

    def test_diagonal_value(self):
        rng = np.random.default_rng(1)
        series = random_series(rng, 12)
        h = 0.4
        w = build_gram(series, KernelSpec("gaussian", h))
        expect = (4 * np.pi * h * h) ** -0.5
        assert np.allclose(np.diag(w), expect, rtol=1e-13)

    def test_duplicated_point_rank_deficiency(self):
        y = np.array([0.0, 1.0, 1.0, 2.5])
        w = build_gram(ObservedSeries.from_points(y), KernelSpec("gaussian", 0.5))
        lam = np.linalg.eigvalsh(w)
        assert lam[0] == pytest.approx(0.0, abs=1e-12)

    def test_bitwise_symmetry(self):
        rng = np.random.default_rng(2)
        series = random_series(rng, 40, dim=3)
        w = build_gram(series, KernelSpec("gaussian", 0.8, dim=3))
        assert np.array_equal(w, w.T)

    def test_psd_up_to_tolerance(self):
        rng = np.random.default_rng(3)
        for kind, family in (("linear", "gaussian"), ("circular", "vonmises")):
            series = random_series(rng, 30, kind=kind)
            w = build_gram(series, KernelSpec(family, 0.5))
            lam = np.linalg.eigvalsh(w)
            assert lam[0] > -1e-10 * max(1.0, lam[-1])

    def test_dim_mismatch(self):
        series = ObservedSeries.from_points(np.zeros((5, 2)) + np.arange(5)[:, None])
        with pytest.raises(ValueError, match="dimension"):
            build_gram(series, KernelSpec("gaussian", 1.0, dim=1))


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(4)), np.eye(4), atol=1e-14)

    def test_diagonal(self):
        got = psd_sqrt(np.diag([4.0, 9.0]))
        assert np.allclose(got, np.diag([2.0, 3.0]), atol=1e-14)

    def test_roundtrip_random_psd(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((10, 10))
        w = a.T @ a
        m = psd_sqrt(w)
        assert np.linalg.norm(m @ m - w) <= 1e-10 * np.linalg.norm(w)
        assert np.allclose(m, m.T)

    def test_reconstruction_tolerance_on_gram(self):
        rng = np.random.default_rng(5)
        series = random_series(rng, 80)
        w = build_gram(series, KernelSpec("gaussian", 0.3))
        m = psd_sqrt(w)
        assert np.linalg.norm(m @ m - w) <= 1e-8 * (1 + np.linalg.norm(w))

    def test_rejects_indefinite(self):
        w = np.diag([1.0, -0.5])
        with pytest.raises(np.linalg.LinAlgError, match="not PSD"):
            psd_sqrt(w)

    def test_rejects_asymmetric(self):
        w = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            psd_sqrt(w)

    @pytest.mark.parametrize("i, j", [(0, 1), (1, 1)])
    def test_rejects_nan(self, i, j):
        # a NaN asymmetry compares False against any tolerance; without
        # the NaN-aware test eigh returns an all-NaN root and no error
        w = np.eye(3)
        w[i, j] = w[j, i] = np.nan
        with pytest.raises(ValueError, match="not symmetric"):
            psd_sqrt(w)

    def test_rejects_nan_beyond_one_block(self):
        n = 131
        w = np.eye(n)
        w[n - 1, 64] = w[64, n - 1] = np.nan
        with pytest.raises(ValueError, match="not symmetric"):
            psd_sqrt(w)


class TestBlockedPsdSqrt:
    """The square root, its symmetry check and its message against the
    full-matrix reference."""

    @pytest.mark.parametrize("n", EDGE_SIZES)
    @pytest.mark.parametrize("family", ["gaussian", "vonmises"])
    def test_bit_identical_to_full_matrix(self, family, n):
        pts = np.random.default_rng(n).uniform(0, 2 * np.pi, (n, 1))
        w = cross_gram_matrix(KernelSpec(family, 0.5), pts)
        m = psd_sqrt(w)
        assert np.array_equal(m, psd_sqrt_full(w))
        assert np.array_equal(m, m.T)

    def test_exactly_symmetric_beyond_one_block(self):
        n = 131
        a = np.random.default_rng(16).standard_normal((n, n))
        w = a.T @ a
        w = 0.5 * (w + w.T)
        m = psd_sqrt(w)
        assert np.array_equal(m, m.T)
        assert np.array_equal(m, psd_sqrt_full(w))

    @pytest.mark.parametrize(
        "i, j",
        [
            (130, 129),  # last row, next to the diagonal
            (130, 0),  # last row, first column
            (63, 64),  # above the diagonal
            (64, 63),  # below it
        ],
    )
    def test_rejects_single_asymmetric_entry_at_block_edges(self, i, j):
        n = 131
        w = np.eye(n)
        w[i, j] += 1e-3
        with pytest.raises(ValueError, match="not symmetric") as got:
            psd_sqrt(w)
        with pytest.raises(ValueError) as want:
            psd_sqrt_full(w)
        assert str(got.value) == str(want.value)


class TestEstimateMatchesFullMatrix:
    # n = 50 takes the dense path, whose bits the full-matrix references
    # pin; above FULL_SVD_MAX_N points the estimate takes the factor
    # path, checked by TestFactorPath
    @pytest.mark.parametrize("n", [50])
    @pytest.mark.parametrize("scenario", ["gauss-shift", "vm3"])
    def test_r_values_bit_identical(self, monkeypatch, scenario, n):
        import hmmorder.gram as gram_mod

        series, _ = simulate(get_scenario(scenario), n, seed=4)
        est = estimate_order(series)
        monkeypatch.setattr(gram_mod, "cross_gram_matrix", cross_gram_matrix_full)
        monkeypatch.setattr(gram_mod, "psd_sqrt", psd_sqrt_full)
        monkeypatch.setattr(gram_mod, "build_shifted_product", shifted_product_full)
        ref = estimate_order(series)
        assert np.array_equal(est.r_values, ref.r_values)
        assert est.tau == ref.tau and est.l_hat == ref.l_hat


def dense_oracle_r(series, kernel, l_max=10):
    """r_l from the dense square root, pair product and spectrum,
    called directly whatever the size of the series."""
    m = psd_sqrt(build_gram(series, kernel))
    spec = singular_spectrum(build_shifted_product(m, build_selectors(series)), l_max)
    return tail_stats(spec, l_max)


def indefinite_cross(a, b, h):
    """A difference of two Gaussians: positive diagonal, but its Fourier
    transform is negative at high frequencies."""
    sq = float(np.sum((a - b) ** 2))
    return np.exp(-sq / (4 * h * h)) - 0.9 * np.exp(-sq / (1.2 * h * h))


def zero_diagonal_cross(a, b, h):
    """Zero on the diagonal, exp(-|a - b|^2) off it: W has an eigenvalue
    near -1 that no residual diagonal shows."""
    if np.array_equal(a, b):
        return 0.0
    return float(np.exp(-np.sum((a - b) ** 2)))


class TestFactorPath:
    """Above FULL_SVD_MAX_N points: the pivoted Cholesky factor against
    the dense oracle."""

    @pytest.mark.parametrize(
        "scenario, dim",
        [("gauss-shift", 1), ("gauss-shift", 2), ("gauss-shift", 3), ("vm3", 1)],
        ids=["gauss-shift-d1", "gauss-shift-d2", "gauss-shift-d3", "vm3"],
    )
    def test_matches_dense_oracle(self, scenario, dim):
        series, _ = simulate(get_scenario(scenario, dim=dim), 600, seed=4)
        assert series.n_points > FULL_SVD_MAX_N
        est = estimate_order(series)
        kernel = KernelSpec(est.kernel_family, est.bandwidth, dim)
        ref = dense_oracle_r(series, kernel)
        assert np.max(np.abs(est.r_values - ref)) <= 1e-9 * ref[0]
        assert est.l_hat == count_exceedances(ref, est.tau)

    def test_custom_kernel_matches_dense_oracle(self):
        series, _ = simulate(get_scenario("gauss-shift"), 300, seed=2)
        kernel = CustomKernel(cross_gram_fn=gaussian_cross, bandwidth=0.6)
        est = estimate_order(series, kernel=kernel)
        ref = dense_oracle_r(series, kernel)
        assert np.max(np.abs(est.r_values - ref)) <= 1e-9 * ref[0]
        assert est.l_hat == count_exceedances(ref, est.tau)

    def test_indefinite_custom_kernel_raises(self):
        series, _ = simulate(get_scenario("gauss-shift"), 300, seed=2)
        kernel = CustomKernel(cross_gram_fn=indefinite_cross, bandwidth=0.5)
        with pytest.raises(np.linalg.LinAlgError, match="not PSD"):
            estimate_order(series, kernel=kernel)
        with pytest.raises(np.linalg.LinAlgError, match="not PSD"):
            psd_sqrt(build_gram(series, kernel))

    def test_zero_diagonal_custom_kernel_raises(self):
        # every residual diagonal is 0 <= the stop level from the start,
        # so only the residual column at the stopping pivot shows W is
        # not PSD
        series, _ = simulate(get_scenario("gauss-shift"), 300, seed=2)
        kernel = CustomKernel(cross_gram_fn=zero_diagonal_cross, bandwidth=0.5)
        with pytest.raises(np.linalg.LinAlgError, match="not PSD"):
            estimate_order(series, kernel=kernel)
        with pytest.raises(np.linalg.LinAlgError, match="not PSD"):
            psd_sqrt(build_gram(series, kernel))

    def test_never_takes_the_dense_path(self, monkeypatch):
        import hmmorder.gram as gram_mod

        def dense(*args):
            raise AssertionError("dense path called above FULL_SVD_MAX_N")

        for name in ("cross_gram_matrix", "psd_sqrt"):
            monkeypatch.setattr(gram_mod, name, dense)
        widths = []

        def moments(sel, rows):
            # every pair product is summed here, from stored or streamed rows
            out = pair_moments(sel, rows)
            widths.append(out.shape[1])
            return out

        monkeypatch.setattr(gram_mod, "pair_moments", moments)
        # n pairs are n + 1 points: the smallest series on the factor path
        series, _ = simulate(get_scenario("vm3"), FULL_SVD_MAX_N, seed=0)
        assert np.all(np.isfinite(estimate_order(series).r_values))
        assert len(widths) == 1 and widths[0] < series.n_points

    def test_peak_memory_far_below_one_gram(self):
        series, _ = simulate(get_scenario("gauss-shift"), 2000, seed=0)
        # about 2 MB at rank 32, against 32 MB for one N x N array
        assert estimate_peak(series) <= 8 * series.n_points**2 / 8

    def test_von_mises_features_are_never_stored(self):
        series, _ = simulate(get_scenario("vm3"), 64000, seed=0)
        # about 2.6 MB for one block of features, against 33 MB for the
        # 63 features of every point
        assert estimate_peak(series) <= 10 * series.n_points * 8

    @pytest.mark.parametrize("family", ["gaussian", "vonmises"])
    def test_factor_reproduces_the_gram(self, family):
        series = random_series(
            np.random.default_rng(17), 300, kind="circular" if family == "vonmises" else "linear"
        )
        kernel = KernelSpec(family, 0.3)
        f = cholesky_factor(series, kernel)
        w = build_gram(series, kernel)
        assert f.shape[1] < series.n_points
        # the stop rule leaves every residual entry below N * eps * max W
        assert np.max(np.abs(f @ f.T - w)) <= 1e-12 * np.max(w)

    def test_rank_one_gram_pads_zero_singular_values(self):
        series = ObservedSeries.from_points(np.zeros(300))
        spec = estimate_operator_matrix(series, KernelSpec("gaussian", 0.5), l_max=5)
        assert spec.sigma.size == 5
        assert spec.sigma[0] > 0 and np.all(spec.sigma[1:] == 0.0)
        assert tail_stats(spec, 5)[1] == pytest.approx(0.0, abs=1e-7 * spec.sigma[0])


def estimate_peak(series):
    """tracemalloc peak of one ``estimate_order`` call, in bytes."""
    estimate_order(series)  # loads lazily imported modules outside the trace
    tracemalloc.start()
    try:
        estimate_order(series)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def cholesky_factor_reference(series, kernel):
    """Greedy pivoted Cholesky that updates every point at every pivot:
    the stop rule and PSD checks of ``cholesky_factor`` with one pivot
    per step throughout, one checked ``gram_column`` per pivot."""
    pts = series.points
    n = pts.shape[0]
    resid = gram_diagonal(kernel, pts).copy()
    d_max = float(np.max(resid))
    stop = n * np.finfo(float).eps * d_max
    rows = np.empty((n, n))
    k = 0
    while True:
        p = int(np.argmax(resid))
        col = gram_column(kernel, pts, p)
        col -= rows[:k].T @ rows[:k, p]
        if k == n or resid[p] <= stop:
            break
        col /= np.sqrt(resid[p])
        rows[k] = col
        resid -= col * col
        k += 1
    floor = -1e-12 * d_max
    if np.min(resid) < floor or np.max(np.abs(col)) > stop - floor:
        raise np.linalg.LinAlgError("matrix is not PSD")
    return rows[:k].T


def factor_r(factor, series, l_max=10):
    """r_l from a given factor's pair product."""
    spec = singular_spectrum(build_shifted_product(factor, build_selectors(series)), l_max)
    return tail_stats(spec, l_max)


def late_pair_kernel(value, diag=(0.3, 0.25)):
    """A CustomKernel on the points 10 * i whose Gram is the identity
    but for points 70 and 90: diagonals ``diag``, and ``value`` between
    them.  Every other point has the larger residual diagonal, so these
    two are the last pivots, after two panels."""

    def cross(a, b, h):
        x, y = float(a[0]), float(b[0])
        if {x, y} == {700.0, 900.0}:
            return value
        if x == y:
            return dict(zip((700.0, 900.0), diag)).get(x, 1.0)
        return float(np.exp(-((x - y) ** 2)))

    return CustomKernel(cross_gram_fn=cross, bandwidth=1.0)


LATE_PAIR_SERIES = ObservedSeries.from_points(10.0 * np.arange(150))


class TestCompaction:
    """Beyond the first 64 greedy pivots: ranks far above one panel of
    ``cholesky_factor``, whose columns are formed on the points not yet
    pivoted."""

    @pytest.mark.parametrize(
        "scenario, dim, n, bandwidth",
        [("gauss-shift", 3, 600, None), ("vm3", 1, 1000, 0.003)],
        ids=["gauss-shift-d3", "vm3-h0.003"],
    )
    def test_matches_the_uncompacted_loop(self, scenario, dim, n, bandwidth):
        series, _ = simulate(get_scenario(scenario, dim=dim), n, seed=0)
        h = bandwidth or select_bandwidth(BandwidthRule(), series)
        kernel = KernelSpec("vonmises" if scenario == "vm3" else "gaussian", h, dim)
        f, ref = cholesky_factor(series, kernel), cholesky_factor_reference(series, kernel)
        assert ref.shape[1] > 4 * 64
        # panels pick other pivots than greedy, at a bounded cost in rank
        assert 0.97 * ref.shape[1] <= f.shape[1] <= 1.03 * ref.shape[1]
        w_max = float(np.max(gram_diagonal(kernel, series.points)))
        assert np.max(np.abs(f @ f.T - ref @ ref.T)) <= 1e-12 * w_max
        r, r_ref = factor_r(f, series), factor_r(ref, series)
        assert np.max(np.abs(r - r_ref)) <= 1e-9 * r_ref[0]

    def test_pooled_sequences_match_dense_oracle(self):
        parts = [simulate(get_scenario("gauss-shift", dim=3), 200, seed=s)[0] for s in (1, 2, 3)]
        series = ObservedSeries(sequences=tuple(p.sequences[0] for p in parts))
        assert series.n_points > FULL_SVD_MAX_N
        est = estimate_order(series)
        kernel = KernelSpec("gaussian", est.bandwidth, 3)
        assert cholesky_factor(series, kernel).shape[1] > 64
        ref = dense_oracle_r(series, kernel)
        assert np.max(np.abs(est.r_values - ref)) <= 1e-9 * ref[0]
        assert est.l_hat == count_exceedances(ref, est.tau)

    def test_custom_kernel_beyond_one_block_matches_dense_oracle(self):
        series, _ = simulate(get_scenario("gauss-shift"), 300, seed=2)
        kernel = CustomKernel(cross_gram_fn=gaussian_cross, bandwidth=0.05)
        assert cholesky_factor(series, kernel).shape[1] > 64
        est = estimate_order(series, kernel=kernel)
        ref = dense_oracle_r(series, kernel)
        assert np.max(np.abs(est.r_values - ref)) <= 1e-9 * ref[0]
        assert est.l_hat == count_exceedances(ref, est.tau)

    def test_late_pair_kernel_is_full_rank_when_psd(self):
        # 0.2^2 < 0.3 * 0.25: the two late pivots are taken, last
        f = cholesky_factor(LATE_PAIR_SERIES, late_pair_kernel(0.2))
        assert f.shape[1] == LATE_PAIR_SERIES.n_points
        w = build_gram(LATE_PAIR_SERIES, late_pair_kernel(0.2))
        assert np.max(np.abs(f @ f.T - w)) <= 1e-15

    @pytest.mark.parametrize(
        "diag, match",
        [
            # 0.5^2 > 0.3 * 0.25: the residual diagonal of point 90 turns
            # negative at the 149th pivot
            ((0.3, 0.25), "not PSD: residual diagonal"),
            # both residual diagonals are 0, at the stop level after 148
            # pivots: only the residual column of point 70 shows the 0.5
            ((0.0, 0.0), r"not PSD: residual column 5\.0+e-01"),
        ],
        ids=["negative-diagonal", "zero-diagonals"],
    )
    def test_indefinite_after_compaction_raises(self, diag, match):
        with pytest.raises(np.linalg.LinAlgError, match=match):
            cholesky_factor(LATE_PAIR_SERIES, late_pair_kernel(0.5, diag))

    def test_nan_after_compaction_names_the_original_points(self):
        with pytest.raises(FloatingPointError, match="points 90 and 70 "):
            cholesky_factor(LATE_PAIR_SERIES, late_pair_kernel(np.nan))


class TestPanels:
    """What the panels of ``cholesky_factor`` keep: greedy pivoted
    Cholesky's bits below one panel, and at any rank a factor exact to
    the stop level."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rank_below_one_panel_keeps_the_greedy_bits(self, seed):
        series, _ = simulate(get_scenario("gauss-shift"), 2000, seed=seed)
        kernel = KernelSpec("gaussian", select_bandwidth(BandwidthRule(), series))
        f, ref = cholesky_factor(series, kernel), cholesky_factor_reference(series, kernel)
        assert f.shape[1] < 64
        assert np.array_equal(f, ref)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(201, 500),
        dim=st.sampled_from([1, 2, 3]),
        log_h=st.floats(-3.0, 0.5),
        duplicated=st.integers(0, 100),
    )
    # full rank, and a rank cut by 100 duplicated pairs
    @example(seed=0, n=300, dim=3, log_h=-3.0, duplicated=0)
    @example(seed=1, n=400, dim=1, log_h=-3.0, duplicated=100)
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_factor_is_exact_to_the_stop_level(self, seed, n, dim, log_h, duplicated):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((n, dim))
        pts[rng.integers(0, n, duplicated)] = pts[rng.integers(0, n, duplicated)]
        series = ObservedSeries.from_points(pts)
        kernel = KernelSpec("gaussian", 10.0**log_h, dim)
        f = cholesky_factor(series, kernel)
        # direct differences: at h = 1e-3, build_gram's |a|^2 + |b|^2 -
        # 2 a.b form is itself off by up to 3e-10 * max W
        d2 = np.sum((pts[:, None] - pts[None]) ** 2, axis=-1)
        w = kernel._norm * np.exp(d2 / -(4.0 * kernel.bandwidth**2))
        w_max = float(np.max(np.diag(w)))
        assert np.max(np.abs(f @ f.T - w)) <= 1e-12 * w_max
        # the stop rule bounds the residual diagonal the loop tracks by
        # N * eps * max W; summing |F_i|^2 afresh from k entries moves it
        # by up to about k * eps * W_ii (1.0014 times the stop level at
        # seed 2498, n = 333, d = 2)
        resid = np.diag(w) - np.sum(f * f, axis=1)
        assert np.max(resid) <= (n + f.shape[1]) * np.finfo(float).eps * w_max


def all_features(series, kernel):
    """The von Mises features of every point, stacked: the N x (2M + 1)
    factor that the estimator never stores."""
    return vonmises_features(series, kernel)(0, series.n_points)


class TestTrigonometricFactor:
    """The von Mises features from the Fourier series of phi_h, against
    the Gram matrix and the pivoted Cholesky factor."""

    @pytest.mark.parametrize("kap", [None, 0.5, 100.0], ids=["default", "kap0.5", "kap100"])
    def test_factor_reproduces_the_gram(self, kap):
        series, _ = simulate(get_scenario("vm3"), 599, seed=3)
        h = select_bandwidth(BandwidthRule(), series) if kap is None else kap**-0.5
        kernel = KernelSpec("vonmises", h)
        f = all_features(series, kernel)
        assert f.shape[1] % 2 == 1 and f.shape[1] < series.n_points
        w = cross_gram_matrix(kernel, series.points)
        assert np.max(np.abs(f @ f.T - w)) <= 1e-12 * kernel._diag
        # the fewest harmonics whose omitted part is below the stop level
        count = f.shape[1] // 2
        omitted = omitted_harmonics(kernel.concentration)
        assert omitted[count] <= series.n_points * np.finfo(float).eps * kernel._diag
        assert omitted[count - 1] > series.n_points * np.finfo(float).eps * kernel._diag

    def test_matches_cholesky_at_64000_points(self):
        # two exact paths check each other where no dense oracle runs
        series, _ = simulate(get_scenario("vm3"), 64000, seed=0)
        est = estimate_order(series)
        kernel = KernelSpec("vonmises", est.bandwidth)
        features = all_features(series, kernel)
        assert np.array_equal(est.r_values, factor_r(features, series))
        del features
        ref = factor_r(cholesky_factor(series, kernel), series)
        assert est.l_hat == count_exceedances(ref, est.tau)
        assert np.max(np.abs(est.r_values - ref)) <= 1e-9 * ref[0]

    def test_cholesky_when_more_features_than_points(self, monkeypatch):
        # kappa = 1.1e5 needs about 5800 features for 1001 points
        import hmmorder.gram as gram_mod

        series, _ = simulate(get_scenario("vm3"), 1000, seed=0)
        kernel = KernelSpec("vonmises", 0.003)
        assert vonmises_features(series, kernel) is None
        factors = []

        def cholesky(*args):
            factors.append(cholesky_factor(*args))
            return factors[-1]

        monkeypatch.setattr(gram_mod, "cholesky_factor", cholesky)
        spec = estimate_operator_matrix(series, kernel)
        assert len(factors) == 1
        ref = singular_spectrum(build_shifted_product(factors[0], build_selectors(series)))
        assert np.array_equal(spec.sigma, ref.sigma)

    @pytest.mark.parametrize("scenario", ["vm3", "gauss-shift"])
    def test_only_von_mises_takes_the_features(self, monkeypatch, scenario):
        import hmmorder.gram as gram_mod

        def refuse(series, kernel):
            raise AssertionError(f"wrong factor for {kernel.family}")

        name = "cholesky_factor" if scenario == "vm3" else "vonmises_features"
        monkeypatch.setattr(gram_mod, name, refuse)
        series, _ = simulate(get_scenario(scenario), 300, seed=1)
        assert np.all(np.isfinite(estimate_order(series).r_values))

    def test_dimension_is_checked(self):
        series = ObservedSeries.from_points(np.zeros((300, 2)))
        with pytest.raises(ValueError, match="points must be"):
            vonmises_features(series, KernelSpec("vonmises", 0.5))

    @pytest.mark.parametrize("h", [None, 1e200], ids=["default", "uniform"])
    def test_streamed_features_keep_the_bits(self, h):
        import hmmorder.gram as gram_mod

        # 3001 + 2501 points: four blocks of pairs, across a sequence end
        parts = [simulate(get_scenario("vm3"), n, seed=s)[0] for n, s in ((3000, 5), (2500, 6))]
        series = ObservedSeries(
            sequences=tuple(p.sequences[0] for p in parts), kind=parts[0].kind
        )
        assert series.n_pairs > 2 * gram_mod._PAIR_BLOCK
        if h is None:
            h = select_bandwidth(BandwidthRule(), series)
        rows = vonmises_features(series, KernelSpec("vonmises", h))
        sel = build_selectors(series)
        streamed = pair_moments(sel, rows)
        assert np.array_equal(streamed, build_shifted_product(rows(0, series.n_points), sel))
        if h == 1e200:
            # the uniform kernel: M = 0 and one constant feature
            assert streamed.shape == (1, 1)
            assert streamed[0, 0] == pytest.approx(1 / (2 * np.pi), rel=1e-14)


class TestPairMatrices:
    def test_shifted_product_nonzero_spectrum_matches_two_block_form(self):
        # singular values of (1/n) M S M equal those of
        # (1/n) sqrt(W[sec, sec]) sqrt(W[fir, fir]); both express the
        # empirical operator spectrum.
        rng = np.random.default_rng(9)
        series = random_series(rng, 14)
        w = build_gram(series, KernelSpec("gaussian", 0.5))
        m = psd_sqrt(w)
        sel = build_selectors(series)
        n = sel.n_pairs
        b = build_shifted_product(m, sel)
        s_b = np.linalg.svd(b, compute_uv=False)[:n]
        first = pair_indices(sel)
        gu = w[np.ix_(first + 1, first + 1)]
        gv = w[np.ix_(first, first)]
        two_block = psd_sqrt(gu) @ psd_sqrt(gv) / n
        s_t = np.linalg.svd(two_block, compute_uv=False)
        assert np.allclose(s_b, s_t, rtol=1e-9, atol=1e-12)

    def test_factor_path_sums_pair_runs(self):
        f = np.random.default_rng(23).standard_normal((FULL_SVD_MAX_N + 9, 7))
        sel = PairSelectors(((0, 101), (150, 209)))
        want = gathered_product(f, sel)
        assert np.allclose(build_shifted_product(f, sel), want, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("n_points", [2, 51, 199])
    def test_single_sequence_sum_equals_gather_bitwise(self, n_points):
        # the dense path's bits: on one sequence the slice product is the
        # gathered product
        f = np.random.default_rng(n_points).standard_normal((n_points, n_points))
        sel = PairSelectors(((0, n_points),))
        assert np.array_equal(build_shifted_product(f, sel), gathered_product(f, sel))


class TestPairMoments:
    def test_block_edges_count_each_pair_once(self, monkeypatch):
        import hmmorder.gram as gram_mod

        # a block of 7 pairs spans 8 points; lengths 7, 8, 15 and 23 put
        # sequence ends just before, on and after block edges
        monkeypatch.setattr(gram_mod, "_PAIR_BLOCK", 7)
        rng = np.random.default_rng(4)
        series = ObservedSeries(
            sequences=tuple(rng.uniform(0, 1, m) for m in (2, 7, 8, 15, 23))
        )
        got = moment_matrix(series, 6)
        np.testing.assert_allclose(got, brute_force_nhat(series, 6), rtol=0, atol=1e-12)
        f = rng.standard_normal((series.n_points, 5))
        sel = build_selectors(series)
        np.testing.assert_allclose(
            build_shifted_product(f, sel), gathered_product(f, sel), rtol=0, atol=1e-12
        )

    def test_feature_rows_are_asked_for_one_block_at_a_time(self, monkeypatch):
        import hmmorder.gram as gram_mod

        monkeypatch.setattr(gram_mod, "_PAIR_BLOCK", 7)
        series = ObservedSeries(sequences=(np.zeros(2), np.zeros(16)))
        asked = []

        def rows(a, b):
            asked.append((a, b))
            return np.ones((b - a, 1))

        assert pair_moments(build_selectors(series), rows).tolist() == [[1.0]]
        assert asked == [(0, 2), (2, 10), (9, 17), (16, 18)]


class TestSingularSpectrum:
    def test_diagonal(self):
        spec = singular_spectrum(np.diag([3.0, 1.0]), l_max=5)
        assert spec.sigma.tolist() == [3.0, 1.0]
        assert spec.frob_sq == pytest.approx(10.0)

    def test_zero_matrix(self):
        spec = singular_spectrum(np.zeros((4, 4)), l_max=4)
        assert np.all(spec.sigma == 0)
        assert spec.frob_sq == 0.0

    def test_frobenius_identity_full_svd(self):
        rng = np.random.default_rng(10)
        v = rng.standard_normal((20, 20))
        spec = singular_spectrum(v, l_max=20)
        assert np.sum(spec.sigma**2) == pytest.approx(spec.frob_sq, rel=1e-10)

    def test_truncation_keeps_exact_frobenius(self):
        rng = np.random.default_rng(11)
        v = rng.standard_normal((30, 30))
        spec = singular_spectrum(v, l_max=5)
        assert spec.sigma.size == 5
        assert spec.frob_sq == pytest.approx(np.sum(v * v), rel=1e-14)

    def test_stored_mass_below_total(self):
        rng = np.random.default_rng(12)
        v = rng.standard_normal((15, 15))
        spec = singular_spectrum(v, l_max=7)
        assert np.sum(spec.sigma**2) <= spec.frob_sq * (1 + 1e-12)

    def test_iterative_path_matches_full(self):
        import hmmorder.gram as gram_mod

        rng = np.random.default_rng(13)
        v = rng.standard_normal((60, 60))
        full = singular_spectrum(v, l_max=6)
        old = gram_mod.FULL_SVD_MAX_N
        gram_mod.FULL_SVD_MAX_N = 10
        try:
            trunc = singular_spectrum(v, l_max=6)
        finally:
            gram_mod.FULL_SVD_MAX_N = old
        assert np.allclose(trunc.sigma, full.sigma, rtol=1e-8)
        assert trunc.frob_sq == full.frob_sq


def pair_product(scenario, n, seed, bandwidth=None):
    """The N x N shifted product of a simulated series, at the default
    bandwidth unless one is given."""
    series, _ = simulate(get_scenario(scenario), n, seed=seed)
    h = bandwidth or select_bandwidth(BandwidthRule(), series)
    family = "vonmises" if scenario == "vm3" else "gaussian"
    m = psd_sqrt(build_gram(series, KernelSpec(family, h)))
    return build_shifted_product(m, build_selectors(series))


KRYLOV_CASES = {
    # decaying columns give a spectrum the Krylov space can resolve
    "random": lambda: (
        np.random.default_rng(21).standard_normal((300, 300)) * 0.97 ** np.arange(300)
    ),
    # numerical rank about 30 of 601: the reorthogonalisation trap
    "d1-pair-product": lambda: pair_product("gauss-shift", 600, seed=0),
    "identity": lambda: np.eye(300),
    "shift": lambda: np.eye(300, k=1),
    # multiplicity 12 of the leading value, above k = 10
    "diagonal-12-equal": lambda: np.diag(
        np.concatenate([np.ones(12), np.linspace(0.5, 0.01, 288)])
    ),
    "zero": lambda: np.zeros((300, 300)),
    "rank-1": lambda: np.outer(*np.random.default_rng(22).standard_normal((2, 300))),
}


@pytest.fixture
def krylov_results(monkeypatch):
    """What each call of the block Krylov routine returned (None for a
    fall back to the full SVD)."""
    import hmmorder.gram as gram_mod

    results = []
    krylov = gram_mod._krylov_singular_values

    def spy(v, k):
        results.append(krylov(v, k))
        return results[-1]

    monkeypatch.setattr(gram_mod, "_krylov_singular_values", spy)
    return results


class TestKrylovSpectrum:
    @pytest.mark.parametrize("name", list(KRYLOV_CASES))
    def test_matches_full_svd(self, krylov_results, name):
        import hmmorder.gram as gram_mod

        v = KRYLOV_CASES[name]()
        assert min(v.shape) > gram_mod.FULL_SVD_MAX_N
        spec = singular_spectrum(v, l_max=10)
        full = np.linalg.svd(v, compute_uv=False)[:10]
        assert len(krylov_results) == 1 and krylov_results[0] is not None
        assert np.max(np.abs(spec.sigma - full)) <= 1e-12 * full[0]
        assert spec.frob_sq == float(np.sum(v * v))

    def test_uncertified_values_fall_back_to_full_svd(self, krylov_results):
        # a tiny bandwidth makes the product nearly a scaled shift: its
        # leading values cluster too tightly to certify in 16 blocks
        v = pair_product("vm3", 400, seed=0, bandwidth=1e-3)
        spec = singular_spectrum(v, l_max=10)
        assert krylov_results == [None]
        assert np.array_equal(spec.sigma, np.linalg.svd(v, compute_uv=False)[:10])

    def test_clustered_values_give_up_early(self, monkeypatch, krylov_results):
        # the largest residual shrinks at every check (0.40, 0.094, ...),
        # but too slowly to reach 1e-14 * theta_1 within 16 blocks
        import hmmorder.gram as gram_mod

        grown = []
        complement = gram_mod._orthonormal_complement

        def spy(w, basis):
            grown.append(basis.shape[1])
            return complement(w, basis)

        monkeypatch.setattr(gram_mod, "_orthonormal_complement", spy)
        singular_spectrum(pair_product("vm3", 400, seed=0, bandwidth=1e-3), l_max=10)
        assert krylov_results == [None]
        assert 1 + len(grown) < 16

    def test_deterministic(self):
        v = KRYLOV_CASES["d1-pair-product"]()
        first, second = singular_spectrum(v), singular_spectrum(v)
        assert np.array_equal(first.sigma, second.sigma)

    def test_full_svd_up_to_the_crossover(self, krylov_results):
        import hmmorder.gram as gram_mod

        n = gram_mod.FULL_SVD_MAX_N
        v = np.random.default_rng(22).standard_normal((n, n))
        spec = singular_spectrum(v, l_max=10)
        assert krylov_results == []
        assert np.array_equal(spec.sigma, np.linalg.svd(v, compute_uv=False)[:10])


class TestEstimateOperatorMatrix:
    def test_reversal_preserves_spectrum(self):
        # reversing time turns the empirical pair density into its
        # transpose, i.e. the operator into its adjoint, so the
        # singular values are invariant.
        rng = np.random.default_rng(14)
        y = np.cumsum(rng.standard_normal(30))
        spec = KernelSpec("gaussian", 0.5)
        fwd = estimate_operator_matrix(ObservedSeries.from_points(y), spec, l_max=5)
        rev = estimate_operator_matrix(
            ObservedSeries.from_points(y[::-1].copy()), spec, l_max=5
        )
        assert np.allclose(fwd.sigma, rev.sigma, rtol=1e-9)

    def test_pooling_differs_from_concatenation(self):
        rng = np.random.default_rng(15)
        a, b = rng.standard_normal(10), rng.standard_normal(8) + 3.0
        spec = KernelSpec("gaussian", 0.5)
        pooled_series = ObservedSeries(sequences=(a, b))
        merged_series = ObservedSeries.from_points(np.concatenate([a, b]))
        assert build_selectors(pooled_series).n_pairs == 16
        assert build_selectors(merged_series).n_pairs == 17
        pooled = estimate_operator_matrix(pooled_series, spec, l_max=5)
        merged = estimate_operator_matrix(merged_series, spec, l_max=5)
        assert not np.allclose(pooled.sigma, merged.sigma, rtol=1e-8)

    def test_degenerate_identical_points(self):
        series = ObservedSeries.from_points(np.zeros(12))
        spec = estimate_operator_matrix(series, KernelSpec("gaussian", 0.5), l_max=5)
        assert spec.sigma[0] > 0
        assert spec.sigma[1] == pytest.approx(0.0, abs=1e-10 * spec.sigma[0])
