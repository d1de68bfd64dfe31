"""Tail statistics, threshold rules and the counting estimator."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmmorder import estimator as estimator_module
from hmmorder.estimator import (
    ThresholdRule,
    consistency_schedule,
    count_exceedances,
    estimate_order,
    estimate_order_max_univariate,
    practical_threshold,
    tail_stats,
    theoretical_threshold,
)
from hmmorder.gram import FULL_SVD_MAX_N, SingularSpectrum
from hmmorder.kernels import GAUSSIAN_L2_SQ, BandwidthRule, KernelSpec
from hmmorder.series import ObservedSeries
from hmmorder.simulate import get_scenario, shift_scenario, simulate


def spectrum_from(sigma, frob_sq=None):
    sigma = np.asarray(sigma, dtype=float)
    if frob_sq is None:
        frob_sq = float(np.sum(sigma**2))
    return SingularSpectrum(sigma=sigma, frob_sq=frob_sq)


class TestTailStats:
    def test_worked_example(self):
        spec = spectrum_from([5.0, 4.0, 0.1], frob_sq=41.01)
        r = tail_stats(spec, l_max=3)
        assert r[0] == pytest.approx(math.sqrt(41.01), rel=1e-12)
        assert r[1] == pytest.approx(math.sqrt(16.01), rel=1e-12)
        assert r[2] == pytest.approx(0.1, rel=1e-9)

    def test_exact_tail(self):
        r = tail_stats(spectrum_from([3.0, 0.0], frob_sq=9.0), l_max=2)
        assert r.tolist() == [3.0, 0.0]

    def test_round_off_clamped(self):
        spec = spectrum_from([2.0], frob_sq=4.0 - 1e-13)
        r = tail_stats(spec, l_max=2)
        assert r[1] == 0.0

    def test_requires_enough_stored_values(self):
        with pytest.raises(ValueError, match="l_max"):
            tail_stats(spectrum_from([1.0, 0.5]), l_max=4)

    @given(
        st.lists(st.floats(0.01, 50.0), min_size=1, max_size=12),
        st.floats(0.0, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_nonincreasing_for_any_spectrum(self, values, extra_mass):
        sigma = np.sort(np.asarray(values))[::-1]
        spec = spectrum_from(sigma, frob_sq=float(np.sum(sigma**2)) + extra_mass)
        r = tail_stats(spec, l_max=len(sigma))
        assert np.all(np.diff(r) <= 1e-12)

    def test_full_svd_cross_check(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((40, 40))
        s_all = np.linalg.svd(v, compute_uv=False)
        spec = spectrum_from(s_all[:6], frob_sq=float(np.sum(v * v)))
        r = tail_stats(spec, l_max=6)
        for ell in range(6):
            direct = math.sqrt(np.sum(s_all[ell:] ** 2))
            assert r[ell] == pytest.approx(direct, rel=1e-10)


class TestPracticalThreshold:
    def test_univariate(self):
        assert practical_threshold(10000, 0.1, 1) == pytest.approx(0.1, rel=1e-12)

    def test_bivariate(self):
        assert practical_threshold(10000, 0.5, 2) == pytest.approx(0.004, rel=1e-12)

    def test_scaling_in_n(self):
        t1 = practical_threshold(1000, 0.3, 1)
        t2 = practical_threshold(4000, 0.3, 1)
        assert t2 == pytest.approx(t1 / 2.0, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            practical_threshold(0, 0.1, 1)
        with pytest.raises(ValueError):
            practical_threshold(10, -0.1, 1)


class TestTheoreticalThreshold:
    def test_worked_value(self):
        rule = ThresholdRule(alpha=0.05, t_mix=2.0)
        tau = theoretical_threshold(rule, n=1000, kernel=KernelSpec("gaussian", 0.3))
        # recomputed from the constant definitions:
        c1 = 36 * GAUSSIAN_L2_SQ**2 * math.log(1 / 0.05) * 2
        c2 = GAUSSIAN_L2_SQ * math.sqrt(17)
        expected = (1001 / 1000 * c1) ** 0.5 / 1000**0.5 + c2 / (1000**0.5 * 0.3)
        assert tau == pytest.approx(expected, rel=1e-12)
        assert tau == pytest.approx(0.2537, abs=2e-4)

    def test_monotone_in_mixing_time(self):
        taus = [
            theoretical_threshold(ThresholdRule(0.05, t), 500, KernelSpec("gaussian", 0.4))
            for t in (1.0, 2.0, 5.0)
        ]
        assert taus[0] < taus[1] < taus[2]

    def test_alpha_to_one_limit(self):
        rule = ThresholdRule(1.0 - 1e-12, 2.0)
        tau = theoretical_threshold(rule, 500, KernelSpec("gaussian", 0.4))
        c2 = GAUSSIAN_L2_SQ * math.sqrt(17)
        assert tau == pytest.approx(c2 / (500**0.5 * 0.4), rel=1e-5)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            ThresholdRule(alpha=1.5, t_mix=2.0)
        with pytest.raises(ValueError):
            ThresholdRule(alpha=0.0, t_mix=2.0)

    @pytest.mark.parametrize("scenario", ["gauss-shift", "vm3"])
    def test_estimate_takes_the_norm_of_its_kernel(self, scenario):
        series, _ = simulate(get_scenario(scenario), 300, seed=2)
        est = estimate_order(series, threshold=ThresholdRule(alpha=0.05, t_mix=2.0))
        kernel = KernelSpec(est.kernel_family, est.bandwidth)
        assert est.tau == theoretical_threshold(ThresholdRule(0.05, 2.0), 300, kernel)
        assert est.l_hat == int(np.sum(est.r_values > est.tau))
        assert est.r_values.tolist() == estimate_order(series).r_values.tolist()


class TestConsistencySchedule:
    def test_univariate_regime(self):
        alpha, h = consistency_schedule(1000, 1)
        assert 0 < alpha < 1
        assert h == pytest.approx(1000 ** (-1 / 6), rel=1e-12)

    def test_bivariate_regime(self):
        alpha, h = consistency_schedule(1000, 2)
        assert h == pytest.approx(1000 ** (-1 / 8), rel=1e-12)

    def test_alpha_formula(self):
        alpha, h = consistency_schedule(16, 1, beta=0.25)
        assert h == pytest.approx(0.5, rel=1e-12)
        assert alpha == pytest.approx(math.exp(-4.0), rel=1e-12)

    def test_out_of_regime_rejected(self):
        with pytest.raises(ValueError, match="consistency range"):
            consistency_schedule(100, 1, beta=0.6)
        with pytest.raises(ValueError, match="consistency range"):
            consistency_schedule(100, 2, beta=0.3)


class TestCounting:
    def test_worked_example(self):
        spec = spectrum_from([5.0, 4.0, 0.1], frob_sq=41.01)
        r = tail_stats(spec, l_max=3)
        assert count_exceedances(r, 1.0) == 2

    def test_huge_threshold_gives_zero(self):
        spec = spectrum_from([5.0, 4.0, 0.1], frob_sq=41.01)
        r = tail_stats(spec, l_max=3)
        assert count_exceedances(r, 1e9) == 0

    def test_tie_not_counted(self):
        assert count_exceedances(np.array([2.0, 1.0]), 1.0) == 1

    @given(
        st.lists(st.floats(0.01, 20.0), min_size=1, max_size=10),
        st.floats(0.0, 30.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_count_equals_prefix_length(self, values, tau):
        sigma = np.sort(np.asarray(values))[::-1]
        r = tail_stats(spectrum_from(sigma), l_max=len(sigma))
        count = count_exceedances(r, tau)
        prefix = 0
        for value in r:
            if value > tau:
                prefix += 1
            else:
                break
        assert count == prefix

    @given(st.lists(st.floats(0.01, 20.0), min_size=2, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_tau(self, values):
        sigma = np.sort(np.asarray(values))[::-1]
        r = tail_stats(spectrum_from(sigma), l_max=len(sigma))
        taus = np.linspace(0.0, float(r[0]) * 1.1, 7)
        counts = [count_exceedances(r, t) for t in taus]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts[0] >= counts[-1]
        assert count_exceedances(r, float("inf")) == 0


class TestEstimateOrder:
    def test_three_state_gaussian_shift(self):
        series, _ = simulate(shift_scenario(delta=5.0, nu=0.1), 2000, seed=11)
        estimate = estimate_order(series)
        assert estimate.l_hat == 3
        assert estimate.kernel_family == "gaussian"
        assert not estimate.truncated

    def test_explicit_large_tau(self):
        series, _ = simulate(shift_scenario(delta=5.0), 200, seed=3)
        estimate = estimate_order(series, threshold=1e9)
        assert estimate.l_hat == 0

    def test_explicit_tiny_tau_truncates(self):
        series, _ = simulate(shift_scenario(delta=5.0), 200, seed=3)
        estimate = estimate_order(series, threshold=1e-12, l_max=5)
        assert estimate.l_hat == 5
        assert estimate.truncated

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan"), "auto"])
    def test_invalid_explicit_tau_rejected(self, tau):
        series, _ = simulate(shift_scenario(delta=5.0), 50, seed=3)
        with pytest.raises(ValueError):
            estimate_order(series, threshold=tau)

    @pytest.mark.parametrize("estimator", [estimate_order, estimate_order_max_univariate])
    @pytest.mark.parametrize("l_max", [0, -1])
    def test_nonpositive_lmax_rejected_before_gram_work(
        self, monkeypatch, estimator, l_max
    ):
        def no_gram(*args, **kwargs):
            raise AssertionError("the operator matrix was built")

        monkeypatch.setattr(estimator_module, "estimate_operator_matrix", no_gram)
        series, _ = simulate(shift_scenario(delta=5.0, dim=2), 50, seed=3)
        if estimator is estimate_order:
            series = series.coordinate(0)
        with pytest.raises(ValueError, match="l_max must be >= 1"):
            estimator(series, l_max=l_max)

    def test_kernel_spec_not_accepted(self):
        series, _ = simulate(shift_scenario(delta=5.0), 50, seed=3)
        with pytest.raises(ValueError, match="CustomKernel or None"):
            estimate_order(series, kernel=KernelSpec("gaussian", 0.5))

    def test_default_bandwidth_rule(self):
        series, _ = simulate(shift_scenario(delta=5.0), 200, seed=3)
        default = estimate_order(series)
        ruled = estimate_order(series, bandwidth=BandwidthRule())
        assert ruled.bandwidth == default.bandwidth
        assert ruled.r_values.tolist() == default.r_values.tolist()

    def test_circular_beta_only_rule_keeps_unit_kappa(self):
        # kappa = 1 for the von Mises kernel whether or not beta is set
        series, _ = simulate(get_scenario("vm3"), 500, seed=1)
        assert estimate_order(series).bandwidth == 500 ** (-1.0 / 6.0)
        est = estimate_order(series, bandwidth=BandwidthRule(beta=0.2))
        assert est.bandwidth == 500**-0.2

    def test_r_values_nonincreasing(self):
        series, _ = simulate(shift_scenario(delta=3.0), 300, seed=5)
        estimate = estimate_order(series)
        assert np.all(np.diff(estimate.r_values) <= 1e-12)

    @pytest.mark.parametrize("estimator", [estimate_order, estimate_order_max_univariate])
    @pytest.mark.parametrize("kernel", ["gaussian", "vonmises"])
    def test_kernel_family_string_refused(self, estimator, kernel):
        # the data kind picks the family; a name is not a second spelling
        series, _ = simulate(shift_scenario(delta=5.0, dim=2), 50, seed=3)
        if estimator is estimate_order:
            series = series.coordinate(0)
        with pytest.raises(ValueError, match="a CustomKernel or None"):
            estimator(series, kernel=kernel)

    def test_circular_series_gets_vonmises(self):
        rng = np.random.default_rng(6)
        series = ObservedSeries.from_points(rng.uniform(0, 2 * np.pi, 50), kind="circular")
        assert estimate_order(series).kernel_family == "vonmises"


class TestFactorPathRobustness:
    """Inputs on which the dense square root of W reported "not PSD"."""

    @pytest.mark.parametrize("shift", [1e3, 1e5])
    def test_translation_leaves_the_estimate_unchanged(self, shift):
        # |a|^2 + |b|^2 - 2 a.b lost W's positive semi-definiteness here
        # (minimum eigenvalue -2.4e-10 at 1e3, -3.8e-6 at 1e5)
        series, _ = simulate(get_scenario("gauss-shift"), 500, seed=0)
        moved = ObservedSeries(sequences=tuple(seq + shift for seq in series.sequences))
        base, est = estimate_order(series), estimate_order(moved)
        assert est.l_hat == base.l_hat
        assert np.max(np.abs(est.r_values - base.r_values)) <= 1e-6 * base.r_values[0]

    def test_translation_leaves_the_d3_estimate_unchanged(self):
        # rank about 520 of 601: the factor compacts eight times, where
        # the d = 1 case above stops near rank 30
        series, _ = simulate(get_scenario("gauss-shift", dim=3), 600, seed=0)
        moved = ObservedSeries(sequences=tuple(seq + 1e3 for seq in series.sequences))
        base, est = estimate_order(series), estimate_order(moved)
        assert est.l_hat == base.l_hat
        assert np.max(np.abs(est.r_values - base.r_values)) <= 1e-6 * base.r_values[0]

    def test_small_vonmises_bandwidth(self):
        # kappa = h^-2 = 1.1e5: the row fill's rounding made W indefinite
        # beyond psd_sqrt's floor
        series, _ = simulate(get_scenario("vm3"), 1000, seed=0)
        est = estimate_order(series, bandwidth=0.003)
        assert np.all(np.isfinite(est.r_values)) and est.r_values[0] > 0
        assert np.all(np.diff(est.r_values) <= 1e-12 * est.r_values[0])


@functools.cache
def vm3_estimate():
    """A vm3 series of 401 points and its estimate."""
    series, _ = simulate(get_scenario("vm3"), 400, seed=0)
    return series, estimate_order(series)


class TestRotationInvariance:
    """Circular data above FULL_SVD_MAX_N points, on the trigonometric
    factor: a rotation turns each harmonic's (cos, sin) pair by an
    orthogonal matrix, which the pair product's spectrum does not see."""

    @given(st.floats(-100.0, 100.0))
    @settings(max_examples=30, deadline=None)
    def test_rotation_leaves_the_estimate_unchanged(self, angle):
        series, base = vm3_estimate()
        assert series.n_points > FULL_SVD_MAX_N
        turned = ObservedSeries(
            sequences=tuple(seq + angle for seq in series.sequences), kind="circular"
        )
        est = estimate_order(turned)
        assert est.bandwidth == base.bandwidth and est.tau == base.tau
        assert est.l_hat == base.l_hat
        r = base.r_values
        assert np.max(np.abs(est.r_values - r)) <= 1e-12 * r[0]


class TestBandwidthRange:
    @pytest.mark.parametrize("n", [50, 300])
    def test_out_of_range_bandwidth_fails_alike_on_both_paths(self, n):
        # 50 pairs take the dense square root and 300 the factor; h^2
        # overflows on both, which once gave L = 0 on the first and an
        # OverflowError on the second
        series, _ = simulate(get_scenario("gauss-shift"), n, seed=0)
        assert (series.n_points > FULL_SVD_MAX_N) == (n > FULL_SVD_MAX_N)
        with pytest.raises(ValueError, match=r"bandwidth 1e\+200 is out of range"):
            estimate_order(series, bandwidth=1e200)


class TestMaxUnivariate:
    def test_takes_maximum(self):
        series, _ = simulate(shift_scenario(delta=5.0, dim=2), 1000, seed=21)
        estimate = estimate_order_max_univariate(series)
        assert estimate.method == "max-univariate"
        assert len(estimate.per_coordinate) == 2
        assert estimate.l_hat == max(e.l_hat for e in estimate.per_coordinate)

    def test_requires_multivariate(self):
        series, _ = simulate(shift_scenario(delta=5.0, dim=1), 100, seed=22)
        with pytest.raises(ValueError, match="dim >= 2"):
            estimate_order_max_univariate(series)

    def test_coordinates_use_univariate_threshold(self):
        series, _ = simulate(shift_scenario(delta=5.0, dim=2), 400, seed=23)
        estimate = estimate_order_max_univariate(series)
        for coord in estimate.per_coordinate:
            assert coord.dim == 1
            assert coord.tau == pytest.approx(
                practical_threshold(coord.n_pairs, coord.bandwidth, 1), rel=1e-12
            )

    @pytest.mark.parametrize("dim", [2, 3])
    def test_default_bandwidth_rule(self, dim):
        series, _ = simulate(shift_scenario(delta=5.0, dim=dim), 200, seed=24)
        default = estimate_order_max_univariate(series)
        ruled = estimate_order_max_univariate(series, bandwidth=BandwidthRule())
        for a, b in zip(default.per_coordinate, ruled.per_coordinate, strict=True):
            assert (a.bandwidth, a.tau, a.l_hat) == (b.bandwidth, b.tau, b.l_hat)
            assert a.r_values.tolist() == b.r_values.tolist()
        # the coordinates keep the exponent of the parent dimension
        coord = series.coordinate(0)
        rule = BandwidthRule(beta=1.0 / (4.0 + 2.0 * dim))
        expected = estimate_order(coord, bandwidth=rule)
        assert default.per_coordinate[0].bandwidth == expected.bandwidth

    def test_large_sample_selects_three(self):
        series, _ = simulate(shift_scenario(delta=5.0, nu=0.1, dim=2), 2000, seed=11)
        estimate = estimate_order_max_univariate(series)
        assert estimate.l_hat == 3
