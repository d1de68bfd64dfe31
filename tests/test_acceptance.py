"""Acceptance suite.

Each test checks one numbered criterion at its stated tolerance and
prints a single PASS/FAIL line (run pytest with -s to see them).  The
simulation-based criteria use a fixed base seed; Monte Carlo slack is
part of each criterion's stated bound.  Simulation tables are shared
through module-scoped fixtures so the combined overestimation check
sees exactly the runs behind criteria 5-7.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from hmmorder.estimator import estimate_order
from hmmorder.gram import (
    build_gram,
    estimate_operator_matrix,
    psd_sqrt,
)
from hmmorder.harness import (
    ExperimentConfig,
    run_experiment,
    run_method_comparison,
    success_frequencies,
)
from hmmorder.kernels import KernelSpec, cross_gram
from hmmorder.quadrature import (
    GaussianComponent,
    GaussianPairMixture,
    quadrature_svd_oracle,
    smoothing_bias_profile,
)
from hmmorder.series import ObservedSeries
from hmmorder.seriesio import DatasetDescriptor, export_diagnostics, load_series
from hmmorder.spectral import moment_matrix, significance_line

from test_kernels import quad_cross_gaussian, quad_cross_vonmises
from test_spectral import brute_force_nhat

BASE_SEED = 0


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} [{status}] {detail}")


def overestimates(cell) -> int:
    return sum(1 for r in cell.records if r.error is None and r.l_hat > 3)


@pytest.fixture(scope="module")
def table2_run():
    return run_experiment(
        ExperimentConfig(
            scenario="gauss-shift",
            n_list=(250, 2000),
            delta=5.0,
            nu=0.1,
            dim=1,
            replicates=20,
            base_seed=BASE_SEED,
        )
    )


@pytest.fixture(scope="module")
def table3_run():
    return run_experiment(
        ExperimentConfig(
            scenario="gauss-shift",
            n_list=(1000,),
            delta=5.0,
            nu=0.05,
            dim=1,
            replicates=20,
            base_seed=BASE_SEED,
        )
    )


@pytest.fixture(scope="module")
def table4_multivariate_run():
    return run_experiment(
        ExperimentConfig(
            scenario="gauss-shift",
            n_list=(1000,),
            delta=5.0,
            nu=0.1,
            dim=2,
            replicates=20,
            base_seed=BASE_SEED,
        )
    )


@pytest.fixture(scope="module")
def table4_max_univariate_run():
    return run_experiment(
        ExperimentConfig(
            scenario="gauss-shift",
            n_list=(500,),
            delta=5.0,
            nu=0.1,
            dim=2,
            methods=("operator-max",),
            replicates=20,
            base_seed=BASE_SEED,
        )
    )


class TestCriterion1:
    def test_oracle_equality(self):
        start = time.perf_counter()
        rng = np.random.default_rng(1001)
        worst = 0.0
        for i in range(20):
            n = 20 if i % 2 == 0 else 50
            if i % 4 < 2:
                pts = np.cumsum(rng.standard_normal(n + 1))
                series = ObservedSeries.from_points(pts)
                spec = KernelSpec("gaussian", float(rng.uniform(0.4, 0.8)))
            else:
                pts = np.mod(np.cumsum(rng.uniform(-0.8, 0.8, n + 1)), 2 * np.pi)
                series = ObservedSeries.from_points(pts, kind="circular")
                spec = KernelSpec("vonmises", float(rng.uniform(0.4, 0.8)))
            spectrum = estimate_operator_matrix(series, spec, l_max=5)
            oracle = quadrature_svd_oracle(series, spec, grid_size=500, k=5)
            worst = max(worst, float(np.max(np.abs(spectrum.sigma - oracle) / oracle)))
        elapsed = time.perf_counter() - start
        ok = worst < 1e-3 and elapsed < 60.0
        report(1, ok, f"20 series, worst relative gap {worst:.2e} (tol 1e-3), {elapsed:.1f}s")
        assert worst < 1e-3
        assert elapsed < 60.0


class TestCriterion2:
    def test_bias_decay_slope(self):
        start = time.perf_counter()
        mixture = GaussianPairMixture(
            weights=(0.55, 0.45),
            f=(GaussianComponent(-1.6, 0.9), GaussianComponent(1.4, 0.7)),
            g=(GaussianComponent(-1.0, 0.8), GaussianComponent(1.9, 1.0)),
        )
        bandwidths = np.array([0.4, 0.2, 0.1])
        profile = smoothing_bias_profile(mixture, bandwidths)
        slope = float(np.polyfit(np.log(bandwidths), np.log(profile), 1)[0])
        elapsed = time.perf_counter() - start
        ok = 3.5 <= slope <= 4.5 and elapsed < 60.0
        report(2, ok, f"log-log slope {slope:.3f} (target 4 +/- 0.5), {elapsed:.1f}s")
        assert 3.5 <= slope <= 4.5
        assert elapsed < 60.0


class TestCriterion3:
    def test_cross_kernel_closed_forms(self):
        rng = np.random.default_rng(1003)
        worst_g = 0.0
        for _ in range(100):
            h = float(rng.choice([0.2, 0.5, 1.0]))
            a = float(rng.uniform(-3, 3))
            b = a + float(rng.uniform(-6 * h, 6 * h))
            got = cross_gram(KernelSpec("gaussian", h), [a], [b])
            ref = quad_cross_gaussian(a, b, h)
            worst_g = max(worst_g, abs(got - ref) / abs(ref))
        worst_v = 0.0
        for _ in range(100):
            h = float(rng.choice([0.2, 0.5, 1.0]))
            a, b = rng.uniform(0, 2 * np.pi, 2)
            got = cross_gram(KernelSpec("vonmises", h), [a], [b])
            ref = quad_cross_vonmises(a, b, h)
            worst_v = max(worst_v, abs(got - ref) / abs(ref))
        ok = worst_g < 1e-8 and worst_v < 1e-8
        report(3, ok, f"gaussian {worst_g:.2e}, von Mises {worst_v:.2e} (tol 1e-8)")
        assert worst_g < 1e-8
        assert worst_v < 1e-8


class TestCriterion4:
    def test_psd_sqrt_reconstruction(self):
        rng = np.random.default_rng(1004)
        worst = 0.0
        for _ in range(50):
            n_points = int(rng.integers(10, 301))
            pts = np.cumsum(rng.standard_normal(n_points)) * rng.uniform(0.5, 2.0)
            series = ObservedSeries.from_points(pts)
            w = build_gram(series, KernelSpec("gaussian", float(rng.uniform(0.2, 1.0))))
            m = psd_sqrt(w)
            worst = max(
                worst, float(np.linalg.norm(m @ m - w) / (1.0 + np.linalg.norm(w)))
            )
        ok = worst <= 1e-8
        report(4, ok, f"50 Gram matrices up to N=300, worst residual {worst:.2e} (tol 1e-8)")
        assert worst <= 1e-8


class TestCriterion5:
    def test_table2_large_n(self, table2_run):
        cell = table2_run.cell(2000, "operator")
        correct = cell.count_of(3)
        mean_s = cell.mean_seconds()
        ok = correct >= 18 and mean_s <= 376.0
        report(
            5,
            ok,
            f"n=2000: {correct}/20 select 3 (need >=18), {mean_s:.1f}s per replicate "
            f"(budget 376s)",
        )
        assert correct >= 18
        assert mean_s <= 376.0

    def test_table2_small_n(self, table2_run):
        cell = table2_run.cell(250, "operator")
        ge3 = sum(1 for r in cell.records if r.error is None and r.l_hat >= 3)
        ok = ge3 == 0
        report(5, ok, f"n=250: {ge3}/20 select >=3 (need 0)")
        assert ge3 == 0


class TestCriterion6:
    def test_table3_low_nu(self, table3_run):
        cell = table3_run.cell(1000, "operator")
        correct = cell.count_of(3)
        ok = correct >= 18
        report(6, ok, f"nu=0.05, n=1000: {correct}/20 select 3 (need >=18)")
        assert correct >= 18


class TestCriterion7:
    def test_table4_multivariate(self, table4_multivariate_run):
        cell = table4_multivariate_run.cell(1000, "operator")
        correct = cell.count_of(3)
        ok = correct >= 18
        report(7, ok, f"d=2 multivariate n=1000: {correct}/20 select 3 (need >=18)")
        assert correct >= 18

    def test_table4_max_univariate(self, table4_max_univariate_run):
        cell = table4_max_univariate_run.cell(500, "operator-max")
        selected3 = cell.count_of(3)
        ok = selected3 <= 2
        report(7, ok, f"d=2 max-univariate n=500: {selected3}/20 select 3 (need <=2)")
        assert selected3 <= 2


class TestCriterion8:
    def test_zero_overestimation(
        self,
        table2_run,
        table3_run,
        table4_multivariate_run,
        table4_max_univariate_run,
    ):
        total = 0
        for table in (
            table2_run,
            table3_run,
            table4_multivariate_run,
            table4_max_univariate_run,
        ):
            total += sum(overestimates(cell) for cell in table.cells)
        ok = total == 0
        report(8, ok, f"replicates with L_hat > 3 across criteria 5-7: {total} (need 0)")
        assert total == 0


class TestCriterion9:
    def test_nhat_brute_force_and_regression_rule(self):
        rng = np.random.default_rng(1009)
        worst = 0.0
        for n_points, m in ((120, 8), (300, 14), (500, 20)):
            series = ObservedSeries.from_points(rng.uniform(0, 1, n_points))
            got = moment_matrix(series, m)
            ref = brute_force_nhat(series, m)
            worst = max(worst, float(np.max(np.abs(got - ref))))
        ok_nhat = worst < 1e-12
        sigma = np.array([10.0, 9.0, 8.0, 0.04, 0.03, 0.02, 0.01])
        fitted = significance_line(sigma, n_reg=4)
        expected_fit = np.array([0.07, 0.06, 0.05, 0.04, 0.03, 0.02, 0.01])
        fit_err = float(np.max(np.abs(fitted - expected_fit)))
        significant = sigma > 1.5 * fitted
        l_hat = 0
        for flag in significant:
            if not flag:
                break
            l_hat += 1
        ok = ok_nhat and fit_err < 1e-9 and l_hat == 3
        report(
            9,
            ok,
            f"moment matrix vs brute force {worst:.1e} (tol 1e-12); regression "
            f"example gap {fit_err:.1e} (tol 1e-9), selects {l_hat} (need 3)",
        )
        assert worst < 1e-12
        assert fit_err < 1e-9
        assert l_hat == 3


class TestCriterion10:
    def test_method_comparison(self):
        config = ExperimentConfig(
            scenario="beta3",
            n_list=(3000,),
            nu=0.1,
            replicates=20,
            base_seed=BASE_SEED,
        )
        table = run_method_comparison(config)
        freqs = success_frequencies(table, order=3)
        op = freqs[(3000, "operator")]
        spectral = {m: f for (_, m), f in freqs.items() if m != "operator"}
        violations = {m: f for m, f in spectral.items() if f > op}
        ok = not violations
        report(
            10,
            ok,
            f"beta3 n=3000: operator {op:.2f} vs best spectral "
            f"{max(spectral.values()):.2f} over {len(spectral)} configurations "
            f"(need operator >= each)",
        )
        assert not violations


WIND_FILE = os.environ.get("HMMORDER_WIND_FILE", "datasets/wind2.txt")


class TestCriterion11:
    @pytest.mark.skipif(
        not Path(WIND_FILE).exists(),
        reason="wind-direction benchmark file not supplied (optional criterion)",
    )
    def test_wind_benchmark(self, tmp_path):
        series = load_series(DatasetDescriptor(WIND_FILE, layout="deg", stride=4))
        estimate = estimate_order(series)
        diag = tmp_path / "wind_diag.csv"
        export_diagnostics(estimate, diag)
        exceed_rows = sum(
            int(line.split(",")[-1])
            for line in diag.read_text().strip().split("\n")[1:]
        )
        ok = estimate.l_hat == 3 and exceed_rows == 3
        report(
            11,
            ok,
            f"wind series (n={series.n_pairs}): L_hat={estimate.l_hat} (need 3), "
            f"{exceed_rows} diagnostics rows exceed tau (need 3)",
        )
        assert estimate.l_hat == 3
        assert exceed_rows == 3

    def test_skip_note(self):
        if not Path(WIND_FILE).exists():
            report(11, True, "SKIPPED: wind benchmark file not supplied (optional)")


class TestCriterion12:
    def test_byte_identical_reruns(self, tmp_path):
        from hmmorder.cli import main

        config = tmp_path / "exp.cfg"
        config.write_text(
            "scenario = gauss-shift\ndelta = 5\nnu = 0.1\nd = 1\n"
            "n_list = 120\nmethod = operator, spectral:10:5\n"
            "replicates = 5\nbase_seed = 77\n"
        )
        outputs = []
        for jobs in ("1", "2", "3"):
            out = tmp_path / f"run_{jobs}.csv"
            code = main(
                ["experiment", "--config", str(config), "--out", str(out),
                 "--jobs", jobs]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        ok = outputs[0] == outputs[1] == outputs[2]
        report(12, ok, f"identical CSVs across --jobs 1/2/3: {ok}")
        assert ok
