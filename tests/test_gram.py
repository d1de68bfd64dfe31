"""Gram pipeline: selectors, PSD square root, shifted product, spectra."""

import numpy as np
import pytest

from hmmorder.gram import (
    build_gram,
    build_selectors,
    build_shifted_product,
    estimate_operator_matrix,
    psd_sqrt,
    singular_spectrum,
)
from hmmorder.estimator import estimate_order
from hmmorder.kernels import GRAM_BLOCK, KernelSpec, cross_gram, cross_gram_matrix
from hmmorder.series import ObservedSeries
from hmmorder.simulate import get_scenario, simulate

from test_kernels import BLOCK_EDGE_SIZES, cross_gram_matrix_full


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
        assert sel.first.tolist() == [0, 1]
        assert sel.second.tolist() == [1, 2]

    def test_two_sequences_skip_boundary(self):
        series = ObservedSeries(sequences=(np.arange(3.0), np.arange(2.0)))
        sel = build_selectors(series)
        assert sel.first.tolist() == [0, 1, 3]
        assert sel.second.tolist() == [1, 2, 4]
        assert sel.n_pairs == 3

    def test_minimal_sequence(self):
        series = ObservedSeries.from_points(np.array([1.0, 2.0]))
        sel = build_selectors(series)
        assert sel.first.tolist() == [0]
        assert sel.second.tolist() == [1]

    def test_pairs_are_consecutive(self):
        rng = np.random.default_rng(0)
        series = ObservedSeries(
            sequences=tuple(rng.standard_normal(k) for k in (5, 2, 7))
        )
        sel = build_selectors(series)
        assert np.array_equal(sel.second, sel.first + 1)
        assert sel.n_pairs == series.n_pairs


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


class TestBlockedPsdSqrt:
    """Row-block check and symmetrisation against the full-matrix form."""

    @pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
    @pytest.mark.parametrize("family", ["gaussian", "vonmises"])
    def test_bit_identical_to_full_matrix(self, family, n):
        pts = np.random.default_rng(n).uniform(0, 2 * np.pi, (n, 1))
        w = cross_gram_matrix(KernelSpec(family, 0.5), pts)
        m = psd_sqrt(w)
        assert np.array_equal(m, psd_sqrt_full(w))
        assert np.array_equal(m, m.T)

    def test_exactly_symmetric_beyond_one_block(self):
        n = 2 * GRAM_BLOCK + 3
        a = np.random.default_rng(16).standard_normal((n, n))
        w = a.T @ a
        w = 0.5 * (w + w.T)
        m = psd_sqrt(w)
        assert np.array_equal(m, m.T)
        assert np.array_equal(m, psd_sqrt_full(w))

    @pytest.mark.parametrize(
        "i, j",
        [
            (2 * GRAM_BLOCK + 2, 2 * GRAM_BLOCK + 1),  # inside the last row block
            (2 * GRAM_BLOCK + 2, 0),  # last row, first column
            (GRAM_BLOCK - 1, GRAM_BLOCK),  # straddles a block boundary
            (GRAM_BLOCK, GRAM_BLOCK - 1),
        ],
    )
    def test_rejects_single_asymmetric_entry_at_block_edges(self, i, j):
        n = 2 * GRAM_BLOCK + 3
        w = np.eye(n)
        w[i, j] += 1e-3
        with pytest.raises(ValueError, match="not symmetric") as got:
            psd_sqrt(w)
        with pytest.raises(ValueError) as want:
            psd_sqrt_full(w)
        assert str(got.value) == str(want.value)


class TestEstimateMatchesFullMatrix:
    @pytest.mark.parametrize("n", [50, 600])
    @pytest.mark.parametrize("scenario", ["gauss-shift", "vm3"])
    def test_r_values_bit_identical(self, monkeypatch, scenario, n):
        import hmmorder.gram as gram_mod

        series, _ = simulate(get_scenario(scenario), n, seed=4)
        est = estimate_order(series)
        monkeypatch.setattr(gram_mod, "cross_gram_matrix", cross_gram_matrix_full)
        monkeypatch.setattr(gram_mod, "psd_sqrt", psd_sqrt_full)
        ref = estimate_order(series)
        assert np.array_equal(est.r_values, ref.r_values)
        assert est.tau == ref.tau and est.l_hat == ref.l_hat


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
        gu = w[np.ix_(sel.second, sel.second)]
        gv = w[np.ix_(sel.first, sel.first)]
        two_block = psd_sqrt(gu) @ psd_sqrt(gv) / n
        s_t = np.linalg.svd(two_block, compute_uv=False)
        assert np.allclose(s_b, s_t, rtol=1e-9, atol=1e-12)


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
