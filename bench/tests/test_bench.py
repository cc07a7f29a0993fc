"""Tests of the benchmark itself: tiny-B smoke runs, the output check and
the span arithmetic. They run the real CLI, so they take about a minute.

Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import dataclasses
import importlib.util
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_run", BENCH_DIR / "run.py")
bench = importlib.util.module_from_spec(_spec)
sys.modules["bench_run"] = bench
_spec.loader.exec_module(bench)

SEED = 5  # not the golden seed, so tiny-B golden runs take the layout check


def tiny(name):
    return dataclasses.replace(bench.WORKLOADS[name], resamples=20)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(name, trace, monkeypatch):
    monkeypatch.setattr(bench, "MIN_REPS", 1)
    monkeypatch.setattr(bench, "MIN_PAIRS", 1)
    spec = bench.load_spec()
    result = bench.measure(tiny(name), SEED, 0.0, trace)
    out = io.StringIO()
    bench.report(result, spec, out)

    assert result.correct, result.problems
    lines = out.getvalue().splitlines()
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"] for m in declared} == set(final["metrics"])
    for metric in declared:
        assert final["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.startswith(f"{metric['name']} = ") and line.endswith(f" {metric['unit']}")
                   for line in lines[:-1]), metric["name"]
    assert any(line.startswith("fail_share = 0 ratio") for line in lines)
    if trace:
        assert final["metrics"]["bootstrap.cells"]["value"] == tiny(name).cells(result.inputs)


@pytest.mark.parametrize("corruption", ["value", "dropped line"])
def test_corrupted_table_fails_every_cell(corruption, tmp_path):
    wl = tiny("golden")
    in_dir, inputs = wl.make_inputs(SEED, tmp_path)
    out = tmp_path / "out"
    rep = bench.spawn([sys.executable, "-c", bench.ENTRY, *wl.argv(inputs, SEED, out)],
                      in_dir, tmp_path / "rep.log", time.monotonic() + 120)
    problems, clean = bench.check(wl, inputs, SEED, out, rep.code, None)
    assert problems == []

    table = out / "var.csv"
    lines = table.read_text().splitlines(keepends=True)
    if corruption == "value":
        fields = lines[1].split(",")
        fields[5] = repr(float(fields[5]) * 2)
        lines[1] = ",".join(fields)
    else:
        del lines[-1]
    table.write_text("".join(lines))

    rep.problems, _ = bench.check(wl, inputs, SEED, out, rep.code, clean)
    assert any("var.csv" in p for p in rep.problems)
    attempted, failed = bench.tally([rep], wl.cells(inputs))
    assert attempted == wl.cells(inputs) and failed / attempted == 1.0


def test_missing_spans_count_as_zero():
    trace = {"import_s": 1.0, "peak_alloc_bytes": 0, "spans": [
        ["main", 1, 0.0, 4.0, None],
        ["run_grid", 1, 1.0, 3.0, None],
    ]}
    metrics = bench.layer_metrics(trace, 2, 1000)
    assert metrics["bootstrap.cells"] == 0
    assert metrics["bootstrap.busy_s"] == 0.0
    assert metrics["bootstrap.cell_s.p90"] == 0.0
    assert metrics["ingest.rows_per_s"] == 0.0
    assert metrics["bootstrap.self_s"] == pytest.approx(2.0)
    assert metrics["cli.self_s"] == pytest.approx(2.0)


def test_self_time_subtracts_the_union_of_overlapping_cells():
    trace = {"import_s": 1.0, "peak_alloc_bytes": 2 ** 20, "spans": [
        ["main", 1, 0.0, 10.0, None],
        ["load_returns", 1, 0.0, 1.0, 500],
        ["run_grid", 1, 2.0, 8.0, None],
        ["bootstrap_estimate", 2, 2.0, 5.0, None],
        ["bootstrap_estimate", 3, 3.0, 6.0, None],
        ["bootstrap_estimate", 2, 7.0, 7.5, None],
    ]}
    metrics = bench.layer_metrics(trace, 2, 10 ** 9)
    assert metrics["bootstrap.cells"] == 3
    assert metrics["bootstrap.busy_s"] == pytest.approx(6.5)
    assert metrics["bootstrap.self_s"] == pytest.approx(6.0 - 4.5)
    assert metrics["bootstrap.worker_busy_share"] == pytest.approx(6.5 / 12.0)
    assert metrics["bootstrap.ns_per_elem"] == pytest.approx(6.5)
    assert metrics["ingest.rows_per_s"] == pytest.approx(500.0)
    assert metrics["cli.self_s"] == pytest.approx(10.0 - 1.0 - 6.0)
    assert metrics["bootstrap.peak_alloc_mb"] == pytest.approx(1.0)


def test_scipy_import_time_counts_only_outermost_scipy_modules():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |         50 |       numpy.linalg",
        "import time:       400 |        450 |     scipy.stats",
        "import time:        10 |        460 |   helper",
        "import time:         5 |        765 | riskboot",
    ])
    assert bench.scipy_import_s(log) == pytest.approx((300 + 450) / 1e6)


def test_inputs_depend_only_on_the_seed(tmp_path):
    for name in ("paper", "long_history"):
        wl = bench.WORKLOADS[name]
        first, second, other = (tmp_path / d for d in ("a", "b", "c"))
        for d in (first, second, other):
            d.mkdir()
        _, inputs = wl.make_inputs(SEED, first)
        wl.make_inputs(SEED, second)
        wl.make_inputs(SEED + 1, other)
        for one in inputs:
            data = (first / one.name).read_bytes()
            assert data == (second / one.name).read_bytes()
            assert data != (other / one.name).read_bytes()
            assert len(data) == one.size and data.count(b"\n") == one.rows + 1
        for d in (first, second, other):
            shutil.rmtree(d)


def test_exits_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "golden", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "lacks" in done.stderr


def test_each_time_is_scaled_by_the_reference_job_after_it():
    # The host runs twice as slow during the second repetition, and the
    # reference job after it shows that; the 4th repetition has no setup_s.
    reps = [bench.Rep(code=0, wall_s=w, cpu_s=w + 1.0, rss_mb=100.0)
            for w in (2.0, 6.0, 3.0, 2.5)]
    refs = [r * bench.REF_S for r in (1.0, 2.0, 1.0, 1.0)]
    raw, metrics = bench.end_to_end(reps, [1.0, 2.0, 1.2], refs, 10 ** 9)
    assert raw == pytest.approx({"wall_s": 2.75, "setup_s": 1.2, "cpu_s": 3.75,
                                 "reference_s": bench.REF_S})
    assert metrics["wall_s"] == pytest.approx(2.75)   # median of 2, 3, 3, 2.5
    assert metrics["setup_s"] == pytest.approx(1.0)   # median of 1, 1, 1.2
    assert metrics["cpu_s"] == pytest.approx(3.5)     # median of 3, 3.5, 4, 3.5
    assert metrics["melem_per_s"] == pytest.approx(10 ** 9 / 2.75 / 1e6)
    assert metrics["peak_rss_mb"] == 100.0
