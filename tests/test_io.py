"""Dataset loading, series export, diagnostics files."""

import numpy as np
import pytest

from hmmorder.estimator import estimate_order
from hmmorder.series import ObservedSeries
from hmmorder.seriesio import (
    DataError,
    DatasetDescriptor,
    export_diagnostics,
    load_series,
    save_series,
)
from hmmorder.simulate import shift_scenario, simulate


class TestLoadSeries:
    def test_columns_layout(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("0.5 1.5\n-1.0 2.0\n0.0 0.0\n")
        series = load_series(DatasetDescriptor(path, layout="columns", dim=2))
        assert series.dim == 2
        assert series.n_points == 3
        assert np.allclose(series.points[1], [-1.0, 2.0])

    def test_comma_separated(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0.5,1.5\n-1.0,2.0\n")
        series = load_series(DatasetDescriptor(path, layout="columns", dim=2))
        assert np.allclose(series.points[0], [0.5, 1.5])

    def test_degrees_layout(self, tmp_path):
        path = tmp_path / "angles.txt"
        path.write_text("90\n180\n270\n")
        series = load_series(DatasetDescriptor(path, layout="deg"))
        assert series.kind == "circular"
        assert np.allclose(series.points[:, 0], [np.pi / 2, np.pi, 3 * np.pi / 2])

    def test_radians_layout_wraps(self, tmp_path):
        path = tmp_path / "angles.txt"
        path.write_text("0.5\n7.0\n")
        series = load_series(DatasetDescriptor(path, layout="rad"))
        assert series.points[1, 0] == pytest.approx(7.0 - 2 * np.pi)

    def test_stride(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("\n".join(str(float(i)) for i in range(35064)) + "\n")
        series = load_series(DatasetDescriptor(path, layout="columns", stride=6))
        assert series.n_points == 5844
        series4 = load_series(DatasetDescriptor(path, layout="columns", stride=4))
        assert series4.n_points == 8766
        assert series.points[1, 0] == 6.0

    def test_multisequence(self, tmp_path):
        path = tmp_path / "multi.txt"
        lines = []
        for seq_id, length in ((1, 168), (2, 134), (3, 137)):
            lines += [f"{seq_id} {float(i)}" for i in range(length)]
        path.write_text("\n".join(lines) + "\n")
        series = load_series(DatasetDescriptor(path, layout="multiseq"))
        assert series.n_sequences == 3
        assert series.n_pairs == 167 + 133 + 136

    def test_multisequence_honours_dim(self, tmp_path):
        path = tmp_path / "multi.txt"
        path.write_text("".join(f"{1 + i // 5} {0.1 * i} {0.2 * i}\n" for i in range(10)))
        series = load_series(DatasetDescriptor(path, layout="multiseq", dim=2))
        assert (series.n_sequences, series.dim) == (2, 2)
        with pytest.raises(DataError, match="1 value columns, found 3 fields"):
            load_series(DatasetDescriptor(path, layout="multiseq", dim=1))
        with pytest.raises(DataError, match="3 value columns, found 3 fields"):
            load_series(DatasetDescriptor(path, layout="multiseq", dim=3))

    def test_non_integral_sequence_id_refused(self, tmp_path):
        # int() would truncate 1.7 to 1 and pool both ids into one sequence
        path = tmp_path / "multi.txt"
        path.write_text("".join(f"{(1, 1.7)[i % 2]} {0.1 * i}\n" for i in range(8)))
        with pytest.raises(DataError, match="multi.txt:2: sequence id 1.7"):
            load_series(DatasetDescriptor(path, layout="multiseq"))

    @pytest.mark.parametrize("layout", ["deg", "rad"])
    def test_angle_layouts_are_univariate(self, layout):
        with pytest.raises(ValueError, match="angle layouts are univariate"):
            DatasetDescriptor("angles.txt", layout=layout, dim=2)

    def test_non_numeric_field_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\n2.0\nfoo\n")
        with pytest.raises(DataError, match="bad.txt:3"):
            load_series(DatasetDescriptor(path))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        ("layout", "dim", "text"),
        [
            ("columns", 1, "1.0\n{}\n3.0\n"),
            ("columns", 2, "1.0 2.0\n3.0 {}\n5.0 6.0\n"),
            ("deg", 1, "10\n{}\n30\n"),
            ("rad", 1, "0.1\n{}\n0.3\n"),
            ("multiseq", 1, "1 0.1\n1 {}\n2 0.3\n2 0.4\n"),
            ("multiseq", 1, "1 0.1\n{} 0.2\n2 0.3\n2 0.4\n"),
        ],
        ids=["columns", "columns-d2", "deg", "rad", "multiseq", "multiseq-id"],
    )
    def test_non_finite_field_names_line(self, tmp_path, layout, dim, text, value):
        path = tmp_path / "bad.txt"
        path.write_text(text.format(value))
        with pytest.raises(DataError, match="bad.txt:2: non-finite"):
            load_series(DatasetDescriptor(path, layout=layout, dim=dim))

    def test_ragged_rows_name_line(self, tmp_path):
        path = tmp_path / "ragged.txt"
        path.write_text("1.0 2.0\n3.0\n")
        with pytest.raises(DataError, match="ragged.txt:2"):
            load_series(DatasetDescriptor(path, layout="columns", dim=2))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_series(DatasetDescriptor(tmp_path / "absent.txt"))

    def test_directory_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_series(DatasetDescriptor(tmp_path))

    def test_non_utf8_file_is_data_error(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"1.0\n2.0\n\xe9\n")
        with pytest.raises(DataError, match="latin1.txt: cannot read"):
            load_series(DatasetDescriptor(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n\n")
        with pytest.raises(DataError, match="no data rows"):
            load_series(DatasetDescriptor(path))

    def test_degrees_out_of_range(self, tmp_path):
        path = tmp_path / "angles.txt"
        path.write_text("10\n400\n")
        with pytest.raises(DataError, match="360"):
            load_series(DatasetDescriptor(path, layout="deg"))


class TestRoundTrip:
    def test_linear_bit_exact(self, tmp_path):
        series, _ = simulate(shift_scenario(delta=3.0, dim=2), 200, seed=17)
        path = tmp_path / "series.txt"
        save_series(series, path)
        loaded = load_series(DatasetDescriptor(path, layout="columns", dim=2))
        assert np.array_equal(loaded.points, series.points)
        save_series(loaded, tmp_path / "second.txt")
        assert (tmp_path / "second.txt").read_text() == path.read_text()

    def test_multisequence_round_trip(self, tmp_path):
        rng = np.random.default_rng(18)
        series = ObservedSeries(
            sequences=(rng.standard_normal(30), rng.standard_normal(20))
        )
        path = tmp_path / "multi.txt"
        save_series(series, path)
        loaded = load_series(DatasetDescriptor(path, layout="multiseq"))
        assert loaded.n_sequences == 2
        assert np.array_equal(loaded.points, series.points)


class TestDiagnostics:
    def test_csv_contract(self, tmp_path):
        series, _ = simulate(shift_scenario(delta=5.0), 400, seed=19)
        estimate = estimate_order(series, l_max=10)
        path = tmp_path / "diag.csv"
        export_diagnostics(estimate, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "ell,r_ell,tau,exceeds"
        assert len(lines) == 1 + 10
        for ell, line in enumerate(lines[1:], start=1):
            f_ell, r_ell, tau, exceeds = line.split(",")
            assert int(f_ell) == ell
            assert exceeds in ("0", "1")
            assert (float(r_ell) > float(tau)) == (exceeds == "1")

    def test_exceed_count_matches_l_hat(self, tmp_path):
        series, _ = simulate(shift_scenario(delta=5.0), 400, seed=20)
        estimate = estimate_order(series, l_max=10)
        path = tmp_path / "diag.csv"
        export_diagnostics(estimate, path)
        lines = path.read_text().strip().split("\n")[1:]
        exceed = sum(int(line.split(",")[-1]) for line in lines)
        assert exceed == estimate.l_hat
