"""Command line surface: subcommands, flags, exit codes."""

import numpy as np
import pytest

from hmmorder import cli
from hmmorder.cli import main
from hmmorder.estimator import practical_threshold
from hmmorder.gram import DEFAULT_L_MAX
from hmmorder.harness import ResultTable
from hmmorder.seriesio import DatasetDescriptor, load_series


def run_cli(argv):
    return main(argv)


@pytest.fixture
def gauss_shift_file(tmp_path):
    path = tmp_path / "series.txt"
    code = run_cli(
        [
            "simulate", "--scenario", "gauss-shift", "--delta", "5", "--nu", "0.1",
            "--n", "2000", "--dim", "1", "--seed", "11", "--out", str(path),
        ]
    )
    assert code == 0
    return path


class TestSimulateCommand:
    def test_writes_loadable_file(self, tmp_path):
        path = tmp_path / "out.txt"
        code = run_cli(
            ["simulate", "--scenario", "beta3", "--n", "50", "--seed", "3",
             "--out", str(path)]
        )
        assert code == 0
        series = load_series(DatasetDescriptor(path))
        assert series.n_points == 51

    def test_seed_determinism(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert run_cli(
                ["simulate", "--scenario", "gauss-shift", "--n", "40",
                 "--seed", "5", "--out", str(out)]
            ) == 0
        assert a.read_text() == b.read_text()

    def test_missing_out_directory_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.txt"
        code = run_cli(["simulate", "--scenario", "beta3", "--n", "10", "--out", str(out)])
        assert code == 3
        assert f"data error: {out}" in capsys.readouterr().err

    def test_paper_scenario_delta_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "s.txt"
        code = run_cli(
            ["simulate", "--scenario", "beta3", "--delta", "7", "--n", "50", "--out", str(out)]
        )
        assert code == 2
        assert "no shift" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_scenario_is_config_error(self, tmp_path):
        code = run_cli(
            ["simulate", "--scenario", "bogus", "--n", "10",
             "--out", str(tmp_path / "x.txt")]
        )
        assert code == 2


class TestEstimateCommand:
    def test_selects_three_states(self, gauss_shift_file, capsys):
        code = run_cli(["estimate", "--input", str(gauss_shift_file)])
        assert code == 0
        assert "L_hat = 3" in capsys.readouterr().out

    def test_huge_tau_gives_zero(self, gauss_shift_file, capsys):
        code = run_cli(
            ["estimate", "--input", str(gauss_shift_file), "--tau", "1e9"]
        )
        assert code == 0
        assert "L_hat = 0" in capsys.readouterr().out

    def test_diagnostics_file(self, gauss_shift_file, tmp_path, capsys):
        diag = tmp_path / "diag.csv"
        code = run_cli(
            ["estimate", "--input", str(gauss_shift_file), "--lmax", "8",
             "--diagnostics", str(diag)]
        )
        assert code == 0
        lines = diag.read_text().strip().split("\n")
        assert lines[0] == "ell,r_ell,tau,exceeds"
        assert len(lines) == 9
        assert sum(int(l.split(",")[-1]) for l in lines[1:]) == 3

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = run_cli(["estimate", "--input", str(tmp_path / "nope.txt")])
        assert code == 3

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("layout", ["columns", "deg", "rad", "multiseq"])
    def test_non_finite_value_is_data_error(self, tmp_path, capsys, layout, value):
        prefix = "1 " if layout == "multiseq" else ""
        lines = [f"{prefix}{0.1 * i}" for i in range(10)]
        lines[4] = prefix + value
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        assert run_cli(["estimate", "--input", str(path), "--layout", layout]) == 3
        assert "bad.txt:5: non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["directory", "latin-1"])
    def test_unreadable_input_is_data_error(self, tmp_path, capsys, kind):
        path = tmp_path / "in"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"0.5\n\xe9\n")
        assert run_cli(["estimate", "--input", str(path)]) == 3
        assert f"data error: {path}: cannot read" in capsys.readouterr().err

    def test_unwritable_diagnostics_is_data_error(self, gauss_shift_file, tmp_path, capsys):
        out = tmp_path / "missing" / "diag.csv"
        code = run_cli(
            ["estimate", "--input", str(gauss_shift_file), "--diagnostics", str(out)]
        )
        assert code == 3
        assert f"data error: {out}" in capsys.readouterr().err

    def test_out_of_range_bandwidth_is_config_error(self, gauss_shift_file, capsys):
        # h = 1e-170 * n^(-1/6): 4 pi h^2 underflows to 0
        code = run_cli(["estimate", "--input", str(gauss_shift_file), "--kappa", "1e-170"])
        assert code == 2
        assert "configuration error: bandwidth" in capsys.readouterr().err

    @pytest.mark.parametrize(("dim", "kappa"), [(2, "5e153"), (3, "1e105")])
    def test_subnormal_gaussian_constant_is_config_error(self, tmp_path, capsys, dim, kappa):
        # h = kappa * 60^(-1/(4 + 2d)): 3.0e153 in d = 2 and 6.6e104 in
        # d = 3, where (4 pi h^2)^(-d/2) is subnormal
        path = tmp_path / "series.txt"
        assert run_cli(
            ["simulate", "--scenario", "gauss-shift", "--n", "60", "--dim", str(dim),
             "--seed", "1", "--out", str(path)]
        ) == 0
        code = run_cli(["estimate", "--input", str(path), "--dim", str(dim), "--kappa", kappa])
        assert code == 2
        assert "configuration error: bandwidth" in capsys.readouterr().err

    def test_bad_kappa_is_config_error(self, gauss_shift_file):
        code = run_cli(
            ["estimate", "--input", str(gauss_shift_file), "--kappa", "-2"]
        )
        assert code == 2

    def test_explicit_kappa_beta(self, gauss_shift_file, capsys):
        code = run_cli(
            ["estimate", "--input", str(gauss_shift_file),
             "--kappa", "1.0", "--beta", "0.166667"]
        )
        assert code == 0
        assert "L_hat" in capsys.readouterr().out

    def test_circular_layout_uses_vonmises(self, tmp_path, capsys):
        path = tmp_path / "vm.txt"
        assert run_cli(
            ["simulate", "--scenario", "vm3", "--n", "400", "--seed", "4",
             "--out", str(path)]
        ) == 0
        code = run_cli(["estimate", "--input", str(path), "--layout", "rad"])
        assert code == 0
        out = capsys.readouterr().out
        assert "L_hat" in out

    @pytest.mark.parametrize(
        "flags, h", [([], 400 ** (-1.0 / 6.0)), (["--beta", "0.2"], 400**-0.2)]
    )
    def test_circular_bandwidth_has_unit_kappa(self, tmp_path, flags, h):
        path, diag = tmp_path / "vm.txt", tmp_path / "diag.csv"
        assert run_cli(
            ["simulate", "--scenario", "vm3", "--n", "400", "--seed", "4",
             "--out", str(path)]
        ) == 0
        code = run_cli(
            ["estimate", "--input", str(path), "--layout", "rad",
             "--diagnostics", str(diag), *flags]
        )
        assert code == 0
        tau = float(diag.read_text().split("\n")[1].split(",")[2])
        assert tau == practical_threshold(400, h, 1)

    def test_kappa_alone_keeps_default_beta(self, gauss_shift_file, tmp_path):
        diag = tmp_path / "diag.csv"
        code = run_cli(
            ["estimate", "--input", str(gauss_shift_file), "--kappa", "2",
             "--diagnostics", str(diag)]
        )
        assert code == 0
        tau = float(diag.read_text().split("\n")[1].split(",")[2])
        assert tau == practical_threshold(2000, 2.0 * 2000 ** (-1.0 / 6.0), 1)

    def test_zero_lmax_is_config_error(self, gauss_shift_file, capsys):
        code = run_cli(["estimate", "--input", str(gauss_shift_file), "--lmax", "0"])
        assert code == 2
        assert "l_max must be >= 1" in capsys.readouterr().err

    def test_kernel_flag_is_usage_error(self, gauss_shift_file):
        # the data kind picks the kernel, so there is no flag to pick it
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["estimate", "--input", str(gauss_shift_file), "--kernel", "gaussian"])
        assert excinfo.value.code == 2

    def test_lmax_default_is_the_library_default(self, gauss_shift_file, tmp_path):
        diag = tmp_path / "diag.csv"
        assert cli.DEFAULT_L_MAX is DEFAULT_L_MAX
        code = run_cli(["estimate", "--input", str(gauss_shift_file), "--diagnostics", str(diag)])
        assert code == 0
        assert len(diag.read_text().strip().split("\n")) == 1 + DEFAULT_L_MAX

    @pytest.mark.parametrize(
        "flags, code",
        [
            (["--layout", "multiseq", "--dim", "1"], 3),
            (["--layout", "rad", "--dim", "2"], 2),
            (["--layout", "deg", "--dim", "2"], 2),
        ],
    )
    def test_layout_dim_mismatch(self, tmp_path, flags, code):
        # an id column and two value columns are not a d = 1 multi-sequence
        # file, and an angle file is never multivariate
        path = tmp_path / "multi.txt"
        path.write_text("".join(f"1 {0.1 * i} {0.2 * i}\n" for i in range(20)))
        assert run_cli(["estimate", "--input", str(path), *flags]) == code


class TestExperimentCommand:
    def test_csv_output_and_determinism(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(
            "scenario = gauss-shift\ndelta = 5\nnu = 0.1\nd = 1\n"
            "n_list = 60\nmethod = operator\nreplicates = 3\nbase_seed = 2\n"
        )
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        assert run_cli(["experiment", "--config", str(config), "--out", str(out1)]) == 0
        assert run_cli(
            ["experiment", "--config", str(config), "--out", str(out2), "--jobs", "2"]
        ) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().split("\n")[0]
        assert header.startswith("scenario,")
        assert "mean_seconds" not in header

    def test_markdown_format(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(
            "scenario = gauss-shift\nn_list = 60\nreplicates = 2\nbase_seed = 1\n"
        )
        out = tmp_path / "t.md"
        assert run_cli(
            ["experiment", "--config", str(config), "--out", str(out),
             "--format", "md"]
        ) == 0
        assert out.read_text().startswith("| scenario |")

    def test_bad_config_is_config_error(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text("n_list = 60\n")
        code = run_cli(
            ["experiment", "--config", str(config), "--out", str(tmp_path / "o.csv")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "text",
        [
            "scenario = gauss-shift\nnoise = laplace\n",
            "scenario = vm3\nd = 2\n",
            "scenario = beta3\nnoise = laplace\n",
        ],
    )
    def test_mislabelled_scenario_is_config_error(self, tmp_path, text):
        config = tmp_path / "exp.cfg"
        config.write_text(text + "n_list = 60\nreplicates = 1\n")
        code = run_cli(
            ["experiment", "--config", str(config), "--out", str(tmp_path / "o.csv")]
        )
        assert code == 2

    def test_missing_config_is_data_error(self, tmp_path):
        code = run_cli(
            ["experiment", "--config", str(tmp_path / "none.cfg"),
             "--out", str(tmp_path / "o.csv")]
        )
        assert code == 3

    @pytest.mark.parametrize("kind", ["directory", "latin-1"])
    def test_unreadable_config_is_data_error(self, tmp_path, capsys, kind):
        config = tmp_path / "exp.cfg"
        if kind == "directory":
            config.mkdir()
        else:
            config.write_bytes(b"scenario = gauss-shift\n# \xe9\n")
        code = run_cli(
            ["experiment", "--config", str(config), "--out", str(tmp_path / "o.csv")]
        )
        assert code == 3
        assert f"data error: {config}" in capsys.readouterr().err

    @pytest.mark.parametrize("out_kind", ["missing", "directory"])
    @pytest.mark.parametrize("command", ["experiment", "compare-spectral"])
    def test_missing_out_directory_is_data_error_before_the_grid(
        self, tmp_path, monkeypatch, capsys, command, out_kind
    ):
        ran = []
        for name in ("run_experiment", "run_method_comparison"):
            monkeypatch.setattr(cli, name, ran.append)
        config = tmp_path / "exp.cfg"
        config.write_text("scenario = gauss-shift\nn_list = 60\nreplicates = 1\n")
        if out_kind == "missing":
            out = tmp_path / "missing" / "o.csv"
        else:  # an existing directory, which cannot be written as a file
            out = tmp_path / "o.csv"
            out.mkdir()
        assert run_cli([command, "--config", str(config), "--out", str(out)]) == 3
        assert ran == []
        assert f"data error: {out}" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, jobs", [([], 3), (["--jobs", "2"], 2)])
    def test_jobs_flag_overrides_config(self, tmp_path, monkeypatch, flags, jobs):
        seen = []

        def fake_run_experiment(config):
            seen.append(config)
            return ResultTable(config=config, cells=())

        monkeypatch.setattr(cli, "run_experiment", fake_run_experiment)
        config = tmp_path / "exp.cfg"
        config.write_text("scenario = gauss-shift\nn_list = 60\njobs = 3\n")
        out = tmp_path / "o.csv"
        assert run_cli(
            ["experiment", "--config", str(config), "--out", str(out), *flags]
        ) == 0
        assert [c.jobs for c in seen] == [jobs]

    @pytest.mark.parametrize(
        "line",
        [
            "beta = -1",
            "beta = 0",
            "n_list = 0",
            "n_list =",
            "l_max = 0",
            "method =",
            "n_list = sixty",
            "beta = steep",
            "replicates: 2",
            "scenario = vm3",
        ],
    )
    def test_invalid_config_is_config_error(self, tmp_path, line):
        config = tmp_path / "exp.cfg"
        config.write_text(f"scenario = gauss-shift\nreplicates = 1\n{line}\n")
        code = run_cli(
            ["experiment", "--config", str(config), "--out", str(tmp_path / "o.csv")]
        )
        assert code == 2
        assert not (tmp_path / "o.csv").exists()


class TestCompareSpectral:
    def test_runs_method_grid(self, tmp_path):
        config = tmp_path / "cmp.cfg"
        config.write_text(
            "scenario = beta3\nn_list = 120\nreplicates = 2\nbase_seed = 3\n"
        )
        out = tmp_path / "cmp.csv"
        assert run_cli(
            ["compare-spectral", "--config", str(config), "--out", str(out)]
        ) == 0
        text = out.read_text()
        assert "operator" in text
        assert "spectral:20:5" in text
        assert "spectral:60:55" in text
