"""Grid oracle self-consistency and the operator-level lemmas."""

import numpy as np
import pytest

from hmmorder.gram import estimate_operator_matrix
from hmmorder.kernels import KernelSpec
from hmmorder.quadrature import (
    GaussianComponent,
    GaussianPairMixture,
    OracleResolutionError,
    empirical_grid_operator,
    quadrature_svd_oracle,
    smoothing_bias_profile,
)
from hmmorder.series import ObservedSeries
from hmmorder.simulate import shift_scenario, simulate


@pytest.fixture(scope="module")
def two_component_mixture():
    return GaussianPairMixture(
        weights=(0.55, 0.45),
        f=(GaussianComponent(-1.6, 0.9), GaussianComponent(1.4, 0.7)),
        g=(GaussianComponent(-1.0, 0.8), GaussianComponent(1.9, 1.0)),
    )


class TestGridOperator:
    def test_rank_one_from_single_pair(self):
        series = ObservedSeries.from_points(np.array([0.0, 1.0]))
        op = empirical_grid_operator(series, KernelSpec("gaussian", 0.8), 300)
        s = op.singular_values(3)
        assert s[1] <= 1e-8 * s[0]

    def test_total_mass_close_to_one(self):
        rng = np.random.default_rng(1)
        series = ObservedSeries.from_points(rng.normal(0, 1, 25))
        op = empirical_grid_operator(series, KernelSpec("gaussian", 0.5), 400)
        assert op.total_mass() == pytest.approx(1.0, abs=1e-3)

    def test_refinement_convergence(self):
        rng = np.random.default_rng(2)
        series = ObservedSeries.from_points(rng.normal(0, 1, 30))
        spec = KernelSpec("gaussian", 0.8)
        s200 = empirical_grid_operator(series, spec, 200).singular_values(1)[0]
        s400 = empirical_grid_operator(series, spec, 400).singular_values(1)[0]
        assert abs(s200 - s400) / s400 < 1e-4

    def test_resolution_error_raised_when_coarse(self):
        rng = np.random.default_rng(3)
        series = ObservedSeries.from_points(rng.normal(0, 5, 40))
        with pytest.raises(OracleResolutionError):
            quadrature_svd_oracle(series, KernelSpec("gaussian", 0.02), grid_size=20)

    def test_multivariate_rejected(self):
        rng = np.random.default_rng(4)
        series = ObservedSeries.from_points(rng.normal(0, 1, (10, 2)))
        with pytest.raises(ValueError, match="univariate"):
            empirical_grid_operator(series, KernelSpec("gaussian", 0.5, dim=2))


class TestOperatorMatrixEquality:
    """The matrix pipeline must carry the operator's singular values."""

    @pytest.mark.parametrize("n_pairs", [20, 50])
    @pytest.mark.parametrize("family", ["gaussian", "vonmises"])
    def test_pipeline_matches_oracle(self, n_pairs, family):
        rng = np.random.default_rng(100 + n_pairs)
        for _ in range(5):
            if family == "gaussian":
                y = np.cumsum(rng.standard_normal(n_pairs + 1))
                series = ObservedSeries.from_points(y)
                spec = KernelSpec("gaussian", 0.5)
            else:
                y = np.mod(np.cumsum(rng.uniform(-0.8, 0.8, n_pairs + 1)), 2 * np.pi)
                series = ObservedSeries.from_points(y, kind="circular")
                spec = KernelSpec("vonmises", 0.5)
            spectrum = estimate_operator_matrix(series, spec, l_max=5)
            oracle = quadrature_svd_oracle(series, spec, grid_size=500, k=5)
            rel = np.abs(spectrum.sigma - oracle) / oracle
            assert np.max(rel) < 1e-3

    def test_multi_sequence_pooled_matches_oracle(self):
        rng = np.random.default_rng(200)
        seqs = tuple(np.cumsum(rng.standard_normal(k)) for k in (12, 9, 15))
        series = ObservedSeries(sequences=seqs)
        spec = KernelSpec("gaussian", 0.6)
        spectrum = estimate_operator_matrix(series, spec, l_max=5)
        oracle = quadrature_svd_oracle(series, spec, grid_size=500, k=5)
        rel = np.abs(spectrum.sigma - oracle) / oracle
        assert np.max(rel) < 1e-3

    def test_hmm_series_leading_values(self):
        series, _ = simulate(shift_scenario(delta=4.0), 49, seed=7)
        spec = KernelSpec("gaussian", 0.5)
        spectrum = estimate_operator_matrix(series, spec, l_max=4)
        oracle = quadrature_svd_oracle(series, spec, grid_size=600, k=4)
        assert np.max(np.abs(spectrum.sigma - oracle) / oracle) < 1e-3


class TestMixtureOracle:
    def test_exact_matches_grid(self, two_component_mixture):
        mix = two_component_mixture
        exact = mix.exact_singular_values()
        grid = mix.on_grid(-9.0, 10.0, 1600).singular_values(2)
        assert np.allclose(exact, grid, rtol=1e-8)

    def test_smoothed_matches_grid(self, two_component_mixture):
        mix = two_component_mixture.smoothed(0.3)
        exact = mix.exact_singular_values()
        grid = mix.on_grid(-9.0, 10.0, 1600).singular_values(2)
        assert np.allclose(exact, grid, rtol=1e-8)

    def test_rank_preserved_under_smoothing(self, two_component_mixture):
        op = two_component_mixture.smoothed(0.5).on_grid(-10.0, 11.0, 1200)
        s = op.singular_values(4)
        assert s[1] > 1e-3 * s[0]
        assert s[2] < 1e-10 * s[0]

    def test_bias_decay_slope(self, two_component_mixture):
        hs = np.array([0.4, 0.2, 0.1])
        profile = smoothing_bias_profile(two_component_mixture, hs)
        slope = np.polyfit(np.log(hs), np.log(profile), 1)[0]
        assert 3.5 <= slope <= 4.5

    def test_bias_profile_against_closed_form(self, two_component_mixture):
        mix = two_component_mixture
        hs = [0.4, 0.2]
        profile = smoothing_bias_profile(mix, hs, grid_size=1600)
        raw = mix.exact_singular_values()
        for h, got in zip(hs, profile):
            expected = float(np.sum((raw - mix.smoothed(h).exact_singular_values()) ** 2))
            assert got == pytest.approx(expected, rel=1e-6)
