"""Spectral baseline: scaling, moment matrix, significance rule."""

import numpy as np
import pytest

from hmmorder import spectral
from hmmorder.gram import harmonics
from hmmorder.series import ObservedSeries
from hmmorder.simulate import paper_scenarios, simulate
from hmmorder.spectral import (
    SpectralConfig,
    basis_matrix,
    moment_matrix,
    significance_line,
    spectral_order,
)


def basis_matrix_columnwise(values, n_basis):
    """Reference basis: one cos pass per column, sqrt(2) cos(pi k y)."""
    values = np.asarray(values, dtype=float)
    out = np.empty((values.size, n_basis))
    out[:, 0] = 1.0
    for k in range(1, n_basis):
        out[:, k] = np.sqrt(2.0) * np.cos(np.pi * k * values)
    return out


def brute_force_nhat(series, n_basis):
    def phi(k, y):
        return 1.0 if k == 0 else np.sqrt(2.0) * np.cos(np.pi * k * y)

    pairs = []
    for seq in series.sequences:
        vals = seq[:, 0]
        pairs.extend(zip(vals[:-1], vals[1:]))
    out = np.zeros((n_basis, n_basis))
    for k in range(n_basis):
        for ell in range(n_basis):
            out[k, ell] = np.mean([phi(k, a) * phi(ell, b) for a, b in pairs])
    return out


def build_nhat_per_sequence(series, n_basis, block=2048):
    """Reference moment matrix: each sequence walked on its own in
    blocks of ``block`` pairs that share an edge point, the products
    phi(y_t) phi(y_{t+1})^T summed into a zero matrix."""
    nhat = np.zeros((n_basis, n_basis))
    for seq in series.sequences:
        y = seq[:, 0]
        for a in range(0, y.size - 1, block):
            rows = basis_matrix(y[a : a + block + 1], n_basis)
            nhat += rows[:-1].T @ rows[1:]
    return nhat / series.n_pairs


class TestScaleToUnit:
    """``moment_matrix`` maps values outside [0, 1] onto it, and only those."""

    def test_simple(self):
        # [0, 5, 10] maps to [0, 0.5, 1]
        got = moment_matrix(ObservedSeries.from_points(np.array([0.0, 5.0, 10.0])), 2)
        ref = moment_matrix(ObservedSeries.from_points(np.array([0.0, 0.5, 1.0])), 2)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("name", ["gauss3", "vm3"])
    @pytest.mark.parametrize("n_sequences", [1, 3])
    def test_out_of_range_equals_hand_mapped(self, name, n_sequences):
        spec = paper_scenarios()[name]
        series = ObservedSeries(
            sequences=tuple(simulate(spec, 400, j)[0].sequences[0] for j in range(n_sequences))
        )
        pts = series.points
        lo, hi = float(pts.min()), float(pts.max())
        assert lo < 0.0 or hi > 1.0
        mapped = ObservedSeries(
            sequences=tuple((s - lo) / (hi - lo) for s in series.sequences)
        )
        assert np.array_equal(moment_matrix(series, 20), moment_matrix(mapped, 20))

    def test_unit_range_unchanged(self):
        # values inside [0, 1] are used as they are, not stretched to fill it
        rng = np.random.default_rng(5)
        series = ObservedSeries.from_points(rng.uniform(0.2, 0.7, 200))
        np.testing.assert_allclose(
            moment_matrix(series, 6), brute_force_nhat(series, 6), rtol=0, atol=1e-12
        )

    def test_constant_rejected(self):
        with pytest.raises(ValueError, match="from 2.0 to 2.0 cannot be mapped"):
            moment_matrix(ObservedSeries.from_points(np.full(5, 2.0)), 2)

    def test_unbounded_range_rejected(self):
        # hi - lo overflows, so no affine map onto [0, 1] is finite
        series = ObservedSeries.from_points(np.array([-1e308, 0.0, 1e308]))
        with pytest.raises(ValueError, match="cannot be mapped"):
            moment_matrix(series, 2)

    @pytest.mark.parametrize("low", [0.0, -3.0])
    def test_bivariate_refused_alike_inside_and_outside_unit_range(self, low):
        rng = np.random.default_rng(6)
        series = ObservedSeries.from_points(rng.uniform(low, 1.0, (50, 2)))
        message = "^the spectral baseline handles univariate data only$"
        with pytest.raises(ValueError, match=message):
            moment_matrix(series, 4)
        # the dimension is checked before the basis size
        with pytest.raises(ValueError, match=message):
            moment_matrix(series, 100)


class TestBasisMatrix:
    GRID = np.linspace(0.0, 1.0, 20001)  # holds 0, 0.5 and 1 exactly

    # At M = 100 the reference itself is off the exact cosine by up to
    # 9.5e-14 (its argument pi*k*y rounds at |pi k y| ~ 311), so the
    # two may differ by slightly more than 1e-13 there.
    @pytest.mark.parametrize(
        "n_basis, atol", [(1, 1e-13), (2, 1e-13), (3, 1e-13), (60, 1e-13), (100, 1.5e-13)]
    )
    def test_matches_columnwise_reference(self, n_basis, atol):
        got = basis_matrix(self.GRID, n_basis)
        ref = basis_matrix_columnwise(self.GRID, n_basis)
        assert got.shape == ref.shape == (self.GRID.size, n_basis)
        np.testing.assert_allclose(got, ref, rtol=0, atol=atol)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps > 1e-18, reason="long double has no extra precision"
    )
    def test_no_less_accurate_than_columnwise(self):
        n_basis = 100
        y = self.GRID.astype(np.longdouble)
        pi = np.longdouble("3.14159265358979323846264338327950288")
        k = np.arange(n_basis, dtype=np.longdouble)
        exact = np.sqrt(np.longdouble(2)) * np.cos(pi * k[None, :] * y[:, None])
        exact[:, 0] = 1
        err = np.abs(basis_matrix(self.GRID, n_basis) - exact).max()
        ref_err = np.abs(basis_matrix_columnwise(self.GRID, n_basis) - exact).max()
        assert err <= ref_err
        # the sine rows of the shared recurrence, which the von Mises
        # features take, on [0, 2 pi) and up to the 63 harmonics vm3
        # reaches at n = 64000 (5.2e-15 against 2.8e-14)
        theta = 2.0 * np.pi * self.GRID[:-1]
        m = np.arange(1, 64)
        sin = np.empty((m.size, theta.size))
        harmonics(theta, np.empty_like(sin), sin)
        exact = np.sin(m[:, None] * theta.astype(np.longdouble))
        assert np.abs(sin - exact).max() <= np.abs(np.sin(m[:, None] * theta) - exact).max()

    @pytest.mark.parametrize("name", ["beta3", "gauss3"])
    @pytest.mark.parametrize("n_basis", [20, 40, 60])
    def test_spectral_order_matches_columnwise_basis(self, monkeypatch, name, n_basis):
        series, _ = simulate(paper_scenarios()[name], 5000, seed=21)
        config = SpectralConfig(n_basis=n_basis, n_reg=n_basis // 4)
        got = spectral_order(series, config)
        monkeypatch.setattr(spectral, "basis_matrix", basis_matrix_columnwise)
        ref = spectral_order(series, config)
        assert got.l_hat == ref.l_hat
        # relative to sigma_1: a perturbation of the matrix moves every
        # singular value by at most its norm (Weyl), small ones included
        assert np.abs(got.sigma - ref.sigma).max() <= 1e-12 * ref.sigma[0]


class TestBuildNhat:
    """The moment matrix N-hat as ``moment_matrix`` builds it."""

    def test_constant_series(self):
        series = ObservedSeries.from_points(np.full(10, 0.3))
        nhat = moment_matrix(series, 4)
        phi = basis_matrix(np.array([0.3]), 4)[0]
        assert np.allclose(nhat, np.outer(phi, phi), atol=1e-14)

    def test_top_left_entry_is_one(self):
        rng = np.random.default_rng(1)
        series = ObservedSeries.from_points(rng.uniform(0, 1, 60))
        assert moment_matrix(series, 6)[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        series = ObservedSeries.from_points(rng.uniform(0, 1, 200))
        got = moment_matrix(series, 6)
        assert np.allclose(got, brute_force_nhat(series, 6), atol=1e-12)

    def test_matches_brute_force_multisequence(self):
        rng = np.random.default_rng(3)
        series = ObservedSeries(
            sequences=(rng.uniform(0, 1, 40), rng.uniform(0, 1, 25))
        )
        got = moment_matrix(series, 5)
        assert np.allclose(got, brute_force_nhat(series, 5), atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_moment_matrix_equals_per_sequence_loop(self, seed):
        # pooled beta3 sequences of 4500 pairs (three blocks), 2048 pairs
        # (exactly one block) and 300 pairs
        scenario = paper_scenarios()["beta3"]
        series = ObservedSeries(
            sequences=tuple(
                simulate(scenario, m, seed + 10 * j)[0].sequences[0]
                for j, m in enumerate((4500, 2048, 300))
            )
        )
        got = moment_matrix(series, 40)
        assert np.array_equal(got, build_nhat_per_sequence(series, 40))


class TestSignificanceRule:
    def test_hand_computed_example(self):
        sigma = np.array([10.0, 9.0, 8.0, 0.04, 0.03, 0.02, 0.01])
        fitted = significance_line(sigma, n_reg=4)
        # the four smallest lie exactly on a line of slope -0.01
        assert np.allclose(fitted[3:], sigma[3:], atol=1e-9)
        assert fitted[:3] == pytest.approx([0.07, 0.06, 0.05], abs=1e-9)
        significant = sigma > 1.5 * fitted
        assert significant.tolist() == [True, True, True, False, False, False, False]

    def test_flat_spectrum_selects_zero(self):
        sigma = np.full(6, 2.0)
        fitted = significance_line(sigma, n_reg=3)
        assert np.allclose(fitted, 2.0, atol=1e-12)
        assert not np.any(sigma > 1.5 * fitted)

    def test_scale_invariance(self):
        sigma = np.array([6.0, 5.0, 1.0, 0.5, 0.4, 0.3])
        for c in (0.1, 1.0, 25.0):
            fitted = significance_line(c * sigma, n_reg=3)
            assert np.array_equal(
                c * sigma > 1.5 * fitted, sigma > 1.5 * significance_line(sigma, 3)
            )


class TestSpectralOrder:
    def test_hand_computed_pipeline(self):
        # the regression rule itself is checked above; the full call
        # must count the leading significant run
        series, _ = simulate(paper_scenarios()["beta3"], 1500, seed=10)
        result = spectral_order(series, SpectralConfig(n_basis=20, n_reg=5))
        assert 0 <= result.l_hat <= 20
        assert result.sigma.shape == (20,)
        run = 0
        for flag in result.significant:
            if not flag:
                break
            run += 1
        assert result.l_hat == run

    def test_prefix_rule_stops_at_first_failure(self):
        sigma = np.array([10.0, 0.01, 5.0, 0.009, 0.008, 0.007])
        fitted = significance_line(sigma, n_reg=3)
        significant = sigma > 1.5 * fitted
        assert significant[0] and not significant[1] and significant[2]
        # counting must stop at index 1 even though index 2 is significant

    def test_gaussian_data_autoscaled(self):
        series, _ = simulate(paper_scenarios()["gauss3"], 800, seed=11)
        result = spectral_order(series, SpectralConfig(n_basis=12, n_reg=5))
        assert np.isfinite(result.sigma).all()

    def test_upper_bound_by_basis_size(self):
        series, _ = simulate(paper_scenarios()["beta3"], 400, seed=12)
        result = spectral_order(series, SpectralConfig(n_basis=6, n_reg=3))
        assert result.l_hat <= 6

    def test_basis_larger_than_pairs_rejected(self):
        series, _ = simulate(paper_scenarios()["beta3"], 10, seed=13)
        with pytest.raises(ValueError, match="pairs"):
            spectral_order(series, SpectralConfig(n_basis=20, n_reg=5))

    @pytest.mark.parametrize("name", ["beta3", "gauss3"])
    def test_leading_block_of_larger_moments(self, name):
        series, _ = simulate(paper_scenarios()[name], 3000, seed=14)
        moments = moment_matrix(series, 40)
        small = moment_matrix(series, 20)
        assert np.max(np.abs(moments[:20, :20] - small)) <= 1e-14
        for n_basis, n_reg in ((20, 10), (40, 20)):
            config = SpectralConfig(n_basis=n_basis, n_reg=n_reg)
            shared = spectral_order(series, config, moments=moments)
            alone = spectral_order(series, config)
            assert shared.l_hat == alone.l_hat
            assert np.max(np.abs(shared.sigma - alone.sigma)) <= 1e-12 * alone.sigma[0]

    def test_too_small_moments_rejected(self):
        series, _ = simulate(paper_scenarios()["beta3"], 400, seed=15)
        moments = moment_matrix(series, 10)
        with pytest.raises(ValueError, match="cannot serve"):
            spectral_order(series, SpectralConfig(n_basis=20, n_reg=5), moments=moments)

    def test_reg_too_small_rejected(self):
        with pytest.raises(ValueError, match="two points"):
            SpectralConfig(n_basis=10, n_reg=1)
