"""Experiment harness: determinism, table rendering, config parsing."""

import os
import subprocess
import sys
import time
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

import hmmorder
from hmmorder import harness, spectral
from hmmorder.harness import (
    COMPARISON_METHODS,
    GRID_COLUMNS,
    ConfigError,
    ExperimentConfig,
    ResultTable,
    emit_table,
    parse_config_text,
    parse_method,
    run_experiment,
    success_frequencies,
    timing_report,
)
from hmmorder.simulate import get_scenario, simulate
from hmmorder.spectral import SpectralConfig, spectral_order


def small_config(**overrides):
    base = dict(
        scenario="gauss-shift",
        n_list=(60,),
        delta=5.0,
        nu=0.1,
        dim=1,
        methods=("operator",),
        replicates=4,
        base_seed=123,
        jobs=1,
        l_max=6,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestMethods:
    def test_parse_operator(self):
        assert parse_method("operator") == ("operator", None)
        assert parse_method("operator-max") == ("operator-max", None)

    def test_parse_spectral(self):
        kind, cfg = parse_method("spectral:20:5")
        assert kind == "spectral"
        assert cfg.n_basis == 20 and cfg.n_reg == 5

    def test_parse_unknown(self):
        with pytest.raises(ValueError, match="unknown method"):
            parse_method("oracle")

    def test_comparison_grid(self):
        methods = COMPARISON_METHODS
        assert methods[0] == "operator"
        assert "spectral:20:5" in methods
        assert "spectral:40:20" in methods
        assert "spectral:60:55" in methods
        assert len(methods) == 10


class TestRunExperiment:
    def test_counts_sum_to_replicates(self):
        table = run_experiment(small_config())
        cell = table.cells[0]
        assert sum(cell.counts(table.l_max)) == 4
        assert not cell.failed

    def test_deterministic_rerun(self):
        t1 = run_experiment(small_config())
        t2 = run_experiment(small_config())
        assert emit_table(t1, include_timing=False) == emit_table(t2, include_timing=False)

    def test_jobs_do_not_change_results(self):
        kwargs = dict(n_list=(60, 80), methods=("operator", "spectral:10:5"))
        t1 = run_experiment(small_config(jobs=1, **kwargs))
        t2 = run_experiment(small_config(jobs=2, **kwargs))
        assert emit_table(t1, include_timing=False) == emit_table(t2, include_timing=False)
        for c1, c2 in zip(t1.cells, t2.cells):
            assert (c1.n, c1.method) == (c2.n, c2.method)
            assert [(r.replicate, r.l_hat, r.sigma) for r in c1.records] == [
                (r.replicate, r.l_hat, r.sigma) for r in c2.records
            ]

    def test_adding_grid_row_preserves_existing(self):
        t1 = run_experiment(small_config(n_list=(60,)))
        t2 = run_experiment(small_config(n_list=(60, 80)))
        recs1 = t1.cell(60, "operator").records
        recs2 = t2.cell(60, "operator").records
        assert [r.l_hat for r in recs1] == [r.l_hat for r in recs2]
        assert [r.sigma for r in recs1] == [r.sigma for r in recs2]

    def test_methods_share_simulated_data(self, monkeypatch):
        calls = []

        def counting_simulate(spec, n_pairs, seed):
            calls.append((n_pairs, seed))
            return simulate(spec, n_pairs, seed)

        monkeypatch.setattr(harness, "simulate", counting_simulate)
        config = small_config(n_list=(60, 80), methods=("operator", "spectral:10:5"))
        table = run_experiment(config)
        # one simulation per (n, replicate), shared by both methods
        assert len(calls) == len(set(calls)) == 2 * config.replicates
        assert sorted(n for n, _ in calls) == [60] * 4 + [80] * 4
        for n in (60, 80):
            ops = table.cell(n, "operator").records
            spectral = table.cell(n, "spectral:10:5").records
            assert [r.replicate for r in ops] == [r.replicate for r in spectral] == [0, 1, 2, 3]
            assert all(r.error is None for r in ops + spectral)

    def test_shared_moments_match_standalone_calls(self):
        config = small_config(
            scenario="beta3", n_list=(300,), methods=("spectral:20:10", "spectral:40:20")
        )
        table = run_experiment(config)
        spec = get_scenario("beta3")
        for method in config.methods:
            _, cfg = parse_method(method)
            for rec in table.cell(300, method).records:
                seed = harness._data_seed(config, 300, rec.replicate)
                series, _ = simulate(spec, 300, seed)
                alone = spectral_order(series, cfg)
                assert rec.l_hat == alone.l_hat
                sigma = np.array(rec.sigma)
                ref = alone.sigma[: sigma.size]
                assert np.max(np.abs(sigma - ref)) <= 1e-12 * alone.sigma[0]

    def test_one_moment_matrix_per_replicate(self, monkeypatch):
        sizes = []

        def counting_moment_matrix(series, n_basis):
            sizes.append(n_basis)
            return spectral.moment_matrix(series, n_basis)

        monkeypatch.setattr(harness, "moment_matrix", counting_moment_matrix)
        config = small_config(
            scenario="beta3", methods=("spectral:20:10", "operator", "spectral:40:20")
        )
        table = run_experiment(config)
        assert sizes == [40] * config.replicates
        assert not any(cell.failed for cell in table.cells)

    def test_build_charged_to_method_of_its_size(self, monkeypatch):
        def slow_moment_matrix(series, n_basis):
            time.sleep(0.2)
            return spectral.moment_matrix(series, n_basis)

        monkeypatch.setattr(harness, "moment_matrix", slow_moment_matrix)
        config = small_config(
            scenario="beta3",
            methods=("spectral:20:10", "spectral:40:20", "spectral:40:35"),
            replicates=2,
        )
        table = run_experiment(config)
        for method, charged in (
            ("spectral:20:10", False),
            ("spectral:40:20", True),
            ("spectral:40:35", False),
        ):
            for rec in table.cell(60, method).records:
                assert (rec.seconds >= 0.2) == charged

    def test_basis_between_sizes_fails_alone(self):
        config = small_config(
            scenario="beta3", n_list=(30,), methods=("spectral:20:10", "spectral:40:20")
        )
        table = run_experiment(config)
        assert not table.cell(30, "spectral:20:10").failed
        for rec in table.cell(30, "spectral:40:20").records:
            assert rec.error == "ValueError: n_basis must not exceed the number of pairs"

    def test_failed_shared_build_leaves_each_method_its_error(self):
        # bivariate data: the spectral baseline cannot scale them
        config = small_config(dim=2, methods=("spectral:10:5", "spectral:20:10"))
        series, _ = simulate(
            get_scenario("gauss-shift", dim=2), 60, harness._data_seed(config, 60, 0)
        )
        with pytest.raises(ValueError) as excinfo:
            spectral_order(series, SpectralConfig(n_basis=10, n_reg=5))
        expected = f"ValueError: {excinfo.value}"
        table = run_experiment(config)
        for cell in table.cells:
            assert [r.error for r in cell.records] == [expected] * config.replicates

    def test_failure_recorded_not_fatal(self):
        # n_basis larger than the pair count makes the spectral method fail
        table = run_experiment(small_config(n_list=(20,), methods=("spectral:30:5",)))
        cell = table.cells[0]
        assert cell.failed
        assert all(r.error is not None for r in cell.records)
        assert sum(cell.counts(table.l_max)) == 0

    def test_success_frequencies(self):
        table = run_experiment(small_config(n_list=(60,)))
        freqs = success_frequencies(table, order=3)
        assert set(freqs) == {(60, "operator")}
        assert 0.0 <= freqs[(60, "operator")] <= 1.0
        assert success_frequencies(table) == freqs  # KNOWN_ORDER is 3

    def test_table_reads_grid_from_its_config(self):
        config = small_config(n_list=(60, 80), methods=("operator", "spectral:10:5"))
        table = run_experiment(config)
        assert table.config is config and table.l_max == config.l_max
        assert [(c.n, c.method) for c in table.cells] == [
            (n, m) for n in config.n_list for m in config.methods
        ]
        assert harness.run_method_comparison(
            small_config(scenario="beta3", replicates=1)
        ).config.methods == COMPARISON_METHODS

    def test_timing_report_nonnegative(self):
        table = run_experiment(small_config())
        report = timing_report(table)
        assert all(v >= 0 for v in report.values())

    def test_timing_grows_with_n(self):
        # both sizes above FULL_SVD_MAX_N points, on the factor path: the
        # dense path at 100 points costs more than the factor at 600
        table = run_experiment(small_config(n_list=(300, 30000), replicates=3))
        report = timing_report(table)
        assert report[(30000, 1, "operator")] > report[(300, 1, "operator")]

    def test_multivariate_faster_than_max_univariate(self):
        # on the dense path (up to FULL_SVD_MAX_N points) one d = 3 Gram
        # costs less than three d = 1 Grams
        table = run_experiment(
            small_config(
                n_list=(100,),
                dim=3,
                methods=("operator", "operator-max"),
                replicates=3,
            )
        )
        report = timing_report(table)
        assert report[(100, 3, "operator")] <= report[(100, 3, "operator-max")]

    def test_max_univariate_faster_above_the_crossover(self):
        # above it the d = 1 factors have rank about 30, the d = 3 factor
        # nearly N: three univariate estimates cost less than one in d = 3
        table = run_experiment(
            small_config(
                n_list=(400,),
                dim=3,
                methods=("operator", "operator-max"),
                replicates=3,
            )
        )
        report = timing_report(table)
        assert report[(400, 3, "operator-max")] < report[(400, 3, "operator")]

    def test_success_monotone_in_n(self):
        table = run_experiment(
            small_config(n_list=(60, 700), replicates=8, base_seed=5)
        )
        low = table.cell(60, "operator").count_of(3)
        high = table.cell(700, "operator").count_of(3)
        assert high >= low


ENTRY_POINTS = (
    "estimate_order",
    "estimate_order_max_univariate",
    "OrderEstimate",
    "ThresholdRule",
    "BandwidthRule",
    "KernelSpec",
    "CustomKernel",
    "ObservedSeries",
    "simulate",
    "get_scenario",
    "shift_scenario",
    "paper_scenarios",
    "ExperimentConfig",
    "ResultTable",
    "run_experiment",
    "run_method_comparison",
    "emit_table",
    "load_config",
    "SpectralConfig",
    "spectral_order",
    "DatasetDescriptor",
    "load_series",
    "save_series",
    "export_diagnostics",
)

# the layers behind the entry points, imported from their own modules
DEMOTED_NAMES = [
    (module, name)
    for module, names in (
        (
            "estimator",
            "consistency_schedule practical_threshold tail_stats theoretical_threshold",
        ),
        (
            "gram",
            "PairSelectors SingularSpectrum build_gram build_selectors "
            "build_shifted_product estimate_operator_matrix pair_moments psd_sqrt "
            "singular_spectrum",
        ),
        ("harness", "success_frequencies timing_report"),
        (
            "kernels",
            "cross_gram cross_gram_matrix default_beta kernel_eval kernel_l2_norm_sq "
            "select_bandwidth silverman_kappa",
        ),
        (
            "quadrature",
            "GaussianComponent GaussianPairMixture GridOperator "
            "empirical_grid_operator quadrature_svd_oracle smoothing_bias_profile",
        ),
        (
            "simulate",
            "Beta GaussianLoc HmmSpec ShiftNoise VonMisesLoc "
            "make_transition_nu stationary_distribution",
        ),
        ("spectral", "SpectralResult"),
    )
    for name in names.split()
]


def run_python(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter."""
    src = str(Path(hmmorder.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return out.stdout.strip()


class TestImports:
    def test_import_loads_no_pool_or_sparse_solver(self):
        code = (
            "import sys, hmmorder; "
            "print([m for m in ('hmmorder.quadrature', 'scipy.sparse.linalg', "
            "'concurrent.futures') if m in sys.modules])"
        )
        assert run_python(code) == "[]"

    def test_estimate_above_full_svd_size_loads_no_sparse_solver(self):
        # the leading singular values of a large pair product come from
        # numpy alone; importing scipy.sparse.linalg adds about 9 MB of
        # resident memory
        code = (
            "import sys; from hmmorder import estimate_order, gram; "
            "from hmmorder.simulate import get_scenario, simulate; "
            "series, _ = simulate(get_scenario('gauss-shift'), 600, 0); "
            "assert series.n_points > gram.FULL_SVD_MAX_N; estimate_order(series); "
            "print('scipy.sparse' in sys.modules)"
        )
        assert run_python(code) == "False"

    def test_gaussian_estimate_loads_no_special_functions(self):
        # the package evaluates its one Bessel function, I0e, in numpy;
        # scipy.special's import alone costs about 19 MB of resident memory
        code = (
            "import sys; from hmmorder import estimate_order; "
            "from hmmorder.simulate import get_scenario, simulate; "
            "[estimate_order(simulate(get_scenario('gauss-shift'), n, 0)[0]) "
            "for n in (50, 600)]; "
            "print('scipy.special' in sys.modules)"
        )
        assert run_python(code) == "False"

    def test_vonmises_estimate_loads_no_special_functions(self):
        # the dense square root at n = 50, the trigonometric factor at
        # n = 600 and the Cholesky factor at h = 0.003, where the
        # features would outnumber the points
        code = (
            "import sys; from hmmorder import estimate_order; "
            "from hmmorder.simulate import get_scenario, simulate; "
            "[estimate_order(simulate(get_scenario('vm3'), n, 0)[0], bandwidth=h) "
            "for n, h in ((50, None), (600, None), (600, 0.003))]; "
            "print('scipy.special' in sys.modules)"
        )
        assert run_python(code) == "False"

    @pytest.mark.parametrize(("module", "name"), DEMOTED_NAMES)
    def test_package_exports_only_entry_points(self, module, name):
        assert sorted(hmmorder.__all__) == sorted(ENTRY_POINTS)
        assert name not in hmmorder.__all__ and not hasattr(hmmorder, name)
        assert hasattr(import_module(f"hmmorder.{module}"), name)


class TestEmitTable:
    def test_empty_table_has_header_only(self):
        text = emit_table(ResultTable(config=small_config(l_max=3), cells=()))
        lines = text.strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith("scenario,delta,nu,beta,d,noise,n,method,L0,L1")

    def test_all_correct_cell(self):
        table = run_experiment(
            small_config(n_list=(400,), replicates=10, l_max=3, base_seed=7)
        )
        text = emit_table(table, include_timing=False)
        row = text.strip().split("\n")[1]
        # counts layout: L0,L1,L2,L3,gt_L3 -> all ten replicates land in
        # one bucket; the true-order percentage column reports it
        cell = table.cells[0]
        counts = cell.counts(3)
        assert sum(counts) == 10
        assert f",{counts[0]},{counts[1]},{counts[2]},{counts[3]},{counts[4]}," in row

    def test_percentage_column(self):
        table = run_experiment(small_config(n_list=(400,), replicates=5, base_seed=9))
        cell = table.cells[0]
        pct = 100.0 * cell.count_of(3) / 5
        text = emit_table(table, include_timing=False)
        assert repr(round(pct, 6)) in text.strip().split("\n")[1]

    def test_markdown_row_per_cell(self):
        table = run_experiment(small_config(n_list=(60, 80)))
        text = emit_table(table, fmt="md", include_timing=False)
        lines = [l for l in text.strip().split("\n") if l.startswith("|")]
        assert len(lines) == 2 + 2  # header + separator + one row per cell
        with pytest.raises(ValueError, match="unknown format 'markdown'"):
            emit_table(table, fmt="markdown")

    def test_timing_column_optional(self):
        table = run_experiment(small_config())
        with_timing = emit_table(table, include_timing=True)
        without = emit_table(table, include_timing=False)
        assert "mean_seconds" in with_timing.split("\n")[0]
        assert "mean_seconds" not in without.split("\n")[0]


class TestConfigParsing:
    def test_round_trip(self):
        text = """
        # comment
        scenario = gauss-shift
        delta = 5
        nu = 0.1
        d = 1
        n_list = 250, 2000
        noise = gaussian
        method = operator, spectral:20:5
        replicates = 20
        base_seed = 42
        jobs = 2
        """
        cfg = parse_config_text(text)
        assert cfg.scenario == "gauss-shift"
        assert cfg.n_list == (250, 2000)
        assert cfg.methods == ("operator", "spectral:20:5")
        assert cfg.replicates == 20
        assert cfg.base_seed == 42
        assert cfg.jobs == 2

    def test_m_key_is_unknown(self):
        # the basis size is spelled only in the method, spectral:<n_basis>:<n_reg>
        with pytest.raises(ConfigError, match="unknown configuration key 'M'"):
            parse_config_text("scenario = beta3\nmethod = spectral:20:5\nM = 20\n")

    def test_missing_scenario(self):
        with pytest.raises(ConfigError, match="scenario"):
            parse_config_text("n_list = 100\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            parse_config_text("scenario = beta3\nbogus = 3\n")

    def test_bad_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("scenario = beta3\nnot a kv pair\n")

    def test_repeated_key_refused(self):
        # appending lines must not silently replace the first ones
        text = (
            "scenario = beta3\nn_list = 100\nmethod = spectral:20:10\n"
            "scenario = vm3\nn_list = 5000\n"
        )
        with pytest.raises(ConfigError, match="line 4: key 'scenario' given twice"):
            parse_config_text(text)

    def test_colon_separator_refused(self):
        # '=' is the one separator; a method value keeps its colons
        with pytest.raises(ConfigError, match="line 1: expected 'key = value'"):
            parse_config_text("scenario: beta3\n")
        cfg = parse_config_text("scenario = beta3\nmethod = spectral:20:10\n")
        assert cfg.methods == ("spectral:20:10",)

    def test_beta_key(self):
        cfg = parse_config_text("scenario = gauss-shift\nbeta = 0.25\n")
        assert cfg.beta == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("scenario = gauss-shift\nnoise = laplace\n", "gaussian noise"),
            ("scenario = beta3\nd = 2\n", "univariate"),
            ("scenario = vm3\nnoise = laplace\n", "no noise family"),
            ("scenario = beta3\ndelta = 7\n", "no shift"),
            ("scenario = nope\n", "unknown scenario"),
        ],
    )
    def test_scenario_mismatch_rejected(self, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config_text(text)


class TestScenarioChecks:
    def test_mislabelled_configs_raise_at_construction(self):
        with pytest.raises(ValueError, match="gaussian noise"):
            small_config(noise="laplace")
        with pytest.raises(ValueError, match="univariate"):
            small_config(scenario="vm3", dim=2)
        with pytest.raises(ValueError, match="no noise family"):
            small_config(scenario="beta3", noise="laplace")

    def test_matching_noise_keeps_its_seed_key(self):
        # spelling a named shift scenario's own noise draws the same data
        config = small_config(scenario="laplace-shift", noise="laplace")
        default = small_config(scenario="laplace-shift")
        assert harness._data_seed(config, 60, 0) == harness._data_seed(default, 60, 0)
        text = emit_table(run_experiment(config), include_timing=False)
        assert text == emit_table(run_experiment(default), include_timing=False)
        row = text.split("\n")[1].split(",")
        assert row[GRID_COLUMNS.index("noise")] == "laplace"

    @pytest.mark.parametrize(
        "scenario, noise, label",
        [
            ("laplace-shift", "gaussian", "laplace"),
            ("exp-shift", "gaussian", "exponential"),
            ("gauss-shift", "gaussian", "gaussian"),
            ("shift", "student3", "student3"),
            ("beta3", "gaussian", ""),
            ("gauss3", "gaussian", ""),
            ("vm3", "gaussian", ""),
        ],
    )
    def test_noise_column_names_the_drawn_family(self, scenario, noise, label):
        # the label is the family of the emissions the data are drawn from
        spec = get_scenario(scenario, noise=noise)
        assert {getattr(e, "noise", "") for e in spec.emissions} == {label}
        config = small_config(scenario=scenario, noise=noise)
        cells = (harness.GridCell(60, "operator", ()),)
        row = emit_table(ResultTable(config=config, cells=cells)).split("\n")[1]
        assert row.split(",")[GRID_COLUMNS.index("noise")] == label

    @pytest.mark.parametrize(
        "overrides, match",
        [
            (dict(beta=-1.0), "beta must be positive"),
            (dict(beta=0.0), "beta must be positive"),
            (dict(beta=float("inf")), "beta must be positive"),
            (dict(beta=float("nan")), "beta must be positive"),
            (dict(beta=-1.0, methods=("spectral:10:5",)), "beta must be positive"),
            (dict(n_list=()), "n_list"),
            (dict(n_list=(60, 0)), "n_list"),
            (dict(l_max=0), "l_max must be >= 1"),
            (dict(methods=()), "methods must not be empty"),
        ],
    )
    def test_invalid_config_rejected_at_construction(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            small_config(**overrides)

    def test_vonmises_beta_keeps_unit_kappa(self):
        table = run_experiment(
            small_config(scenario="vm3", beta=0.2, n_list=(80,), replicates=2)
        )
        assert [r.bandwidth for r in table.cells[0].records] == [80**-0.2] * 2
