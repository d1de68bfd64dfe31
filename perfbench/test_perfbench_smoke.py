"""Smoke test of the benchmark instrument at a tiny input size.

Runs every workload through ``run.py`` at n = SMOKE_N for one second,
untraced and traced, and checks that every metric named in
BENCHMARK.json is reported, that the outputs match their recorded
references, and that the self times of the spans add up to the traced
operations' durations.  It sets no timing bound.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import SMOKE_N, WORKLOADS  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_bench(tmp_path, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", "all",
        "--seed", "0", "--seconds", "1", "--trace", str(trace),
        "--n", str(SMOKE_N), "--out", str(tmp_path),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_declares_the_workloads_it_runs():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert "setup_s" in {m["name"] for m in BENCH["end_to_end"]}


def check_metrics(result: dict, section: str) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS)
    expected = {
        f"{workload}.{m['name']}": m["unit"] for workload in WORKLOADS for m in BENCH[section]
    }
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == expected
    assert all(isinstance(e["value"], (int, float)) for e in result["metrics"].values())


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    check_metrics(run_bench(tmp_path, trace=0), "end_to_end")


def test_traced_run_reports_every_layer_and_self_times_add_up(tmp_path):
    result = run_bench(tmp_path, trace=1)
    check_metrics(result, "per_layer")
    for workload in WORKLOADS:
        trace = json.loads((tmp_path / f"spans-{workload}-seed0.json").read_text())
        spans = trace["spans"]
        roots = [s for s in spans if s["parent"] is None]
        assert len(roots) == trace["ops"] >= 1
        assert {s["op"] for s in spans} == set(range(trace["ops"]))
        # self time plus the children's durations is each span's duration,
        # so the self times of all spans add up to the operations' time
        root_total = sum(s["end"] - s["start"] for s in roots)
        self_total = sum(
            entry["value"] * trace["ops"]
            for name, entry in result["metrics"].items()
            if name.startswith(workload + ".") and name.endswith(".self_s")
        )
        assert self_total == pytest.approx(root_total, rel=1e-9, abs=1e-12)
        for span in spans:
            if span["parent"] is not None:
                parent = spans[span["parent"]]
                assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
