"""HMM simulator: transition family, stationarity, determinism."""

from importlib import import_module

import numpy as np
import pytest
from scipy.stats import chisquare

from hmmorder.series import CIRCULAR, ObservedSeries
from hmmorder.simulate import (
    Beta,
    GaussianLoc,
    HmmSpec,
    ShiftNoise,
    VonMisesLoc,
    get_scenario,
    make_transition_nu,
    paper_scenarios,
    shift_scenario,
    simulate,
    stationary_distribution,
)


# the package exports the function ``simulate`` under the module's name
simulate_module = import_module("hmmorder.simulate")


def simulate_per_step(spec, n_pairs, seed):
    """Reference simulator: one searchsorted call per step of the chain,
    with the same uniforms, draw order and emission sampling."""
    rng = np.random.default_rng(seed)
    n_obs = n_pairs + 1
    cum = np.cumsum(spec.transition, axis=1)
    u = rng.random(n_obs)
    states = np.empty(n_obs, dtype=np.intp)
    states[0] = np.searchsorted(np.cumsum(spec.stationary), u[0])
    for t in range(n_pairs):
        states[t + 1] = np.searchsorted(cum[states[t]], u[t + 1])
    obs = np.empty((n_obs, spec.dim))
    for ell in range(spec.n_states):
        mask = states == ell
        count = int(mask.sum())
        if count:
            obs[mask] = spec.emissions[ell].sample(rng, (count, spec.dim))
    return ObservedSeries.from_points(obs, kind=spec.kind), states


class AlmostOneGenerator(np.random.Generator):
    """Draws every uniform as the largest double below 1."""

    def random(self, size=None, dtype=np.float64, out=None):
        return np.full(size, np.nextafter(1.0, 0.0))


def power_iteration_stationary(a, iters=20000):
    pi = np.full(a.shape[0], 1.0 / a.shape[0])
    for _ in range(iters):
        pi = pi @ a
    return pi / pi.sum()


class TestTransition:
    def test_nu_matrix(self):
        a = make_transition_nu(0.1)
        assert np.allclose(np.diag(a), 0.8)
        assert a[0, 1] == a[2, 0] == 0.1

    def test_rows_sum_to_one(self):
        for nu in (0.01, 0.2, 0.45):
            a = make_transition_nu(nu)
            assert np.allclose(a.sum(axis=1), 1.0, atol=1e-15)

    def test_uniform_nu_warns(self):
        with pytest.warns(UserWarning, match="not identifiable"):
            a = make_transition_nu(1.0 / 3.0)
        assert np.allclose(a, 1.0 / 3.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            make_transition_nu(0.0)
        with pytest.raises(ValueError):
            make_transition_nu(0.5)


class TestStationary:
    def test_symmetric_case(self):
        pi = stationary_distribution(make_transition_nu(0.1))
        assert np.allclose(pi, 1.0 / 3.0, atol=1e-13)

    def test_two_state_closed_form(self):
        pi = stationary_distribution(np.array([[0.9, 0.1], [0.2, 0.8]]))
        assert np.allclose(pi, [2 / 3, 1 / 3], atol=1e-12)
        oracle = power_iteration_stationary(np.array([[0.9, 0.1], [0.2, 0.8]]))
        assert np.allclose(pi, oracle, atol=1e-10)

    def test_nearly_absorbing_state(self):
        a = np.array([[0.999, 0.001], [0.01, 0.99]])
        pi = stationary_distribution(a)
        oracle = power_iteration_stationary(a, iters=200000)
        assert np.allclose(pi, oracle, atol=1e-8)
        assert np.max(np.abs(pi @ a - pi)) <= 1e-12

    def test_reducible_rejected(self):
        # two closed classes, and a one-way chain whose state 1 never
        # returns to state 0
        for a in ([[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.5], [0.0, 1.0]]):
            with pytest.raises(ValueError, match="reducible"):
                stationary_distribution(np.array(a))


class TestHmmSpec:
    def test_invalid_rows_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            HmmSpec(
                transition=np.array([[0.7, 0.2], [0.5, 0.5]]),
                stationary=np.array([0.5, 0.5]),
                emissions=(GaussianLoc(0.0), GaussianLoc(1.0)),
            )

    def test_wrong_stationary_rejected(self):
        with pytest.raises(ValueError, match="pi A = pi"):
            HmmSpec(
                transition=np.array([[0.9, 0.1], [0.2, 0.8]]),
                stationary=np.array([0.5, 0.5]),
                emissions=(GaussianLoc(0.0), GaussianLoc(1.0)),
            )

    def test_singular_transition_warns(self):
        with pytest.warns(UserWarning, match="rank deficient"):
            HmmSpec.from_transition(
                np.full((2, 2), 0.5), (GaussianLoc(0.0), GaussianLoc(1.0))
            )


class TestSimulate:
    def test_determinism(self):
        spec = shift_scenario(delta=3.0)
        s1, x1 = simulate(spec, 500, seed=42)
        s2, x2 = simulate(spec, 500, seed=42)
        assert np.array_equal(x1, x2)
        assert np.array_equal(s1.points, s2.points)

    def test_different_seeds_differ(self):
        spec = shift_scenario(delta=3.0)
        s1, _ = simulate(spec, 100, seed=1)
        s2, _ = simulate(spec, 100, seed=2)
        assert not np.array_equal(s1.points, s2.points)

    def test_shapes(self):
        spec = shift_scenario(delta=3.0, dim=3)
        series, states = simulate(spec, 250, seed=9)
        assert series.n_points == 251
        assert series.n_pairs == 250
        assert series.dim == 3
        assert states.shape == (251,)

    def test_state_frequencies_match_stationary(self):
        spec = shift_scenario(delta=1.0, nu=0.1)
        _, states = simulate(spec, 100_000, seed=5)
        n = states.size
        for ell in range(3):
            freq = np.mean(states == ell)
            pi = spec.stationary[ell]
            band = 3.0 * np.sqrt(pi * (1 - pi) / n)
            # the chain is positively correlated, widen the iid band
            assert abs(freq - pi) < 4.0 * band

    def test_transition_frequencies(self):
        spec = shift_scenario(delta=1.0, nu=0.1)
        _, states = simulate(spec, 100_000, seed=6)
        for i in range(3):
            idx = np.nonzero(states[:-1] == i)[0]
            n_i = idx.size
            for j in range(3):
                freq = np.mean(states[idx + 1] == j)
                p = spec.transition[i, j]
                assert abs(freq - p) < 3.0 * np.sqrt(p * (1 - p) / n_i)

    def test_stationary_marginal_chi_square(self):
        # state marginal at a fixed position over many short replicates
        spec = shift_scenario(delta=1.0, nu=0.15)
        counts = np.zeros(3)
        for rep in range(10_000):
            _, states = simulate(spec, 3, seed=90_000 + rep)
            counts[states[2]] += 1
        stat = chisquare(counts, f_exp=np.full(3, counts.sum() / 3))
        assert stat.pvalue > 0.001

    def test_shift_mean_gap(self):
        for noise in ("gaussian", "student3", "laplace"):
            spec = shift_scenario(noise=noise, delta=2.5)
            series, states = simulate(spec, 100_000, seed=13)
            y = series.points[:, 0]
            gap = y[states == 1].mean() - y[states == 2].mean()
            se = np.sqrt(3.0 / np.sum(states == 1) + 3.0 / np.sum(states == 2))
            assert abs(gap - 5.0) < 5.0 * se

    def test_exponential_noise_uncentred(self):
        spec = shift_scenario(noise="exponential", delta=0.0)
        series, _ = simulate(spec, 50_000, seed=14)
        assert series.points.min() >= 0.0
        assert series.points.mean() == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize(
        "name, kwargs",
        [
            ("beta3", {}),
            ("vm3", {}),
            ("gauss3", {}),
            ("student-shift", {"dim": 1}),
            ("gauss-shift", {"dim": 3}),
            ("gauss-shift", {"nu": 0.15}),
        ],
    )
    def test_matches_per_step_walk(self, name, kwargs):
        spec = get_scenario(name, **kwargs)
        for seed in (0, 1, 7, 123):
            for n_pairs in (1, 40, 3000):
                series, states = simulate(spec, n_pairs, seed)
                ref_series, ref_states = simulate_per_step(spec, n_pairs, seed)
                assert np.array_equal(states, ref_states)
                assert states.dtype == ref_states.dtype
                assert np.array_equal(series.points, ref_series.points)

    def test_uniform_above_rounded_cumsum_stays_in_range(self, monkeypatch):
        # the stationary cumsum of nu = 0.15 ends at 0.9999999999999998
        spec = HmmSpec.from_transition(
            make_transition_nu(0.15),
            (GaussianLoc(0.0), GaussianLoc(1.0), GaussianLoc(2.0)),
        )
        assert np.cumsum(spec.stationary)[-1] < 1.0
        monkeypatch.setattr(
            np.random, "default_rng", lambda seed: AlmostOneGenerator(np.random.PCG64(seed))
        )
        series, states = simulate(spec, 5, 0)
        assert np.array_equal(states, np.full(6, 2))
        assert series.n_points == 6

    def test_degenerate_delta_zero(self):
        spec = shift_scenario(delta=0.0)
        series, _ = simulate(spec, 500, seed=15)
        assert np.std(series.points) == pytest.approx(1.0, abs=0.15)


def assert_matches_per_step(spec, n_pairs, seed):
    series, states = simulate(spec, n_pairs, seed)
    ref_series, ref_states = simulate_per_step(spec, n_pairs, seed)
    assert np.array_equal(states, ref_states)
    assert np.array_equal(series.points, ref_series.points)
    return states


class TestBlockWalk:
    @pytest.mark.parametrize("n_pairs", [63, 64, 65, 127, 128, 129])
    def test_block_edges(self, n_pairs):
        assert simulate_module._WALK_BLOCK == 64
        for name in ("beta3", "gauss-shift"):
            for seed in (0, 3):
                assert_matches_per_step(get_scenario(name), n_pairs, seed)

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_any_block_size(self, monkeypatch, block):
        monkeypatch.setattr(simulate_module, "_WALK_BLOCK", block)
        spec = get_scenario("gauss-shift", nu=0.15)
        for n_pairs in (1, 2, 6, 7, 8, 14, 15, 100):
            assert_matches_per_step(spec, n_pairs, seed=n_pairs)

    def test_one_state_chain(self):
        spec = HmmSpec.from_transition([[1.0]], (GaussianLoc(0.0),))
        for n_pairs in (1, 64, 200):
            states = assert_matches_per_step(spec, n_pairs, seed=4)
            assert np.array_equal(states, np.zeros(n_pairs + 1, dtype=np.intp))

    def test_zero_transition_entries(self):
        a = np.array(
            [
                [0.5, 0.5, 0.0, 0.0, 0.0],
                [0.0, 0.2, 0.8, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0, 0.0],
                [0.1, 0.0, 0.0, 0.6, 0.3],
                [0.0, 0.25, 0.0, 0.0, 0.75],
            ]
        )
        spec = HmmSpec.from_transition(a, tuple(GaussianLoc(float(k)) for k in range(5)))
        for n_pairs in (5, 64, 65, 1000):
            states = assert_matches_per_step(spec, n_pairs, seed=n_pairs)
            assert np.all(a[states[:-1], states[1:]] > 0)


class TestScenarios:
    def test_beta_trio(self):
        spec = paper_scenarios()["beta3"]
        assert spec.emissions == (Beta(12.0, 1.0), Beta(1.0, 12.0), Beta(12.0, 12.0))
        series, states = simulate(spec, 2000, seed=1)
        y = series.points[:, 0]
        assert 0.0 <= y.min() and y.max() <= 1.0
        assert y[states == 0].mean() > 0.85  # B(12, 1) concentrates near 1

    def test_gauss_trio(self):
        spec = paper_scenarios()["gauss3"]
        means = [e.mean for e in spec.emissions]
        assert means == [-6.0, 6.0, 0.0]

    def test_vm_trio(self):
        spec = paper_scenarios()["vm3"]
        assert spec.kind == CIRCULAR
        assert [e.concentration for e in spec.emissions] == [10.0, 10.0, 10.0]
        assert [e.mean for e in spec.emissions] == pytest.approx(
            [np.pi / 2, np.pi / 2 + 2 * np.pi / 3, np.pi / 2 + 4 * np.pi / 3]
        )
        series, _ = simulate(spec, 500, seed=2)
        assert series.kind == CIRCULAR
        assert series.points.min() >= 0.0
        assert series.points.max() < 2 * np.pi

    def test_named_shift_scenarios(self):
        spec = get_scenario("student-shift", delta=4.0, nu=0.05, dim=2)
        assert isinstance(spec.emissions[0], ShiftNoise)
        assert spec.emissions[1].shift == 4.0
        assert spec.dim == 2

    @pytest.mark.parametrize("nu", [0.1, 0.15])
    @pytest.mark.parametrize("name", ["beta3", "gauss3", "vm3"])
    def test_get_scenario_equals_catalog_entry(self, name, nu):
        spec = get_scenario(name, nu=nu)
        ref = paper_scenarios(nu)[name]
        assert np.array_equal(spec.transition, ref.transition)
        assert np.array_equal(spec.stationary, ref.stationary)
        assert spec.emissions == ref.emissions
        assert (spec.dim, spec.kind) == (ref.dim, ref.kind)

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            get_scenario("nope")

    @pytest.mark.parametrize("name", ["beta3", "gauss3", "vm3"])
    def test_paper_scenarios_are_univariate(self, name):
        with pytest.raises(ValueError, match="univariate"):
            get_scenario(name, dim=2)
        assert get_scenario(name, dim=1).dim == 1

    @pytest.mark.parametrize("name", ["beta3", "gauss3", "vm3"])
    def test_paper_scenarios_take_no_noise(self, name):
        with pytest.raises(ValueError, match="no noise family"):
            get_scenario(name, noise="laplace")
        assert get_scenario(name, noise="gaussian").n_states == 3

    @pytest.mark.parametrize("name", ["beta3", "gauss3", "vm3"])
    def test_paper_scenarios_take_no_shift(self, name):
        with pytest.raises(ValueError, match="no shift"):
            get_scenario(name, delta=7.0)
        assert get_scenario(name, delta=5.0).n_states == 3

    def test_named_shift_noise_must_agree(self):
        with pytest.raises(ValueError, match="gaussian noise"):
            get_scenario("gauss-shift", noise="laplace")
        with pytest.raises(ValueError, match="laplace noise"):
            get_scenario("laplace-shift", noise="student3")
        # the default noise, or the scenario's own, is accepted
        assert get_scenario("laplace-shift").emissions[0].noise == "laplace"
        assert get_scenario("laplace-shift", noise="laplace").emissions[0].noise == "laplace"
        assert get_scenario("shift", noise="laplace").emissions[0].noise == "laplace"

    def test_vonmises_emission_range(self):
        rng = np.random.default_rng(3)
        draws = VonMisesLoc(5.5, 10.0).sample(rng, 1000)
        assert draws.min() >= 0.0 and draws.max() < 2 * np.pi
