"""Tests of the benchmark itself: output schema, checks, refusal, helpers.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
The smoke runs take a few seconds each.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
from run import op_tail, worked_out  # noqa: E402
from spans import Span, Tracer, history_cost, layer_metrics  # noqa: E402
from workloads import Sweep  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result_lines(stdout):
    return [json.loads(ln) for ln in stdout.splitlines() if ln.startswith('{"correct"')]


def test_benchmark_json_follows_its_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_for_every_workload(trace):
    proc = _run("--smoke", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = _result_lines(proc.stdout)
    assert len(lines) == len(SPEC["workloads"])
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert {k: v["unit"] for k, v in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in wanted
        }
        assert all(isinstance(v["value"], float) for v in line["metrics"].values())
    assert proc.stdout.splitlines()[-1] == json.dumps(lines[-1])


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not _result_lines(proc.stdout)


def test_op_tail_leaves_ten_samples_beyond():
    xs = [float(i) for i in range(1, 34)]
    value, pct = op_tail(xs)
    assert sum(x > value for x in xs) == 10
    assert pct == pytest.approx(100 * 23 / 33)
    assert op_tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_history_cost_counts_every_history_product():
    m, n = 5, 7
    q = m - 1
    flops = sum(2 * 2 * q * k for k in range(n))
    nbytes = sum(2 * 8 * (q * k + k) for k in range(n))
    assert history_cost(f"{m}x{n}") == (flops, nbytes)


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer()
    tracer.spans = [
        Span(0, None, 0, "cli", "cli.main", 0.0, 10.0, "forward"),
        Span(1, 0, 0, "solver", "solver.solve_forward", 1.0, 5.0, "40x200"),
        Span(2, 0, 0, "io", "io.write_solution_csv", 5.0, 8.0),
        Span(3, 2, 0, "io", "io.read_csv", 6.0, 7.0),
    ]
    out = layer_metrics(tracer, n_ops=1, wall=10.0)
    assert out["cli.self_s"] == pytest.approx(3.0)
    assert out["solver.self_s"] == pytest.approx(4.0)
    assert out["io.self_s"] == pytest.approx(3.0)
    assert out["cli.forward_s"] == pytest.approx(10.0)
    assert out["solver.march_s.40x200"] == pytest.approx(4.0)
    assert out["solver.step_us"] == pytest.approx(4.0e6 / 200)


def test_calibration_window_gives_ten_positive_means():
    samples = calibration.window(0.02)
    assert len(samples) == 10 and all(x > 0 for x in samples)


def test_stopped_intervals_are_taken_out_of_every_time():
    result = {"setup_span": [0.0, 1.0], "pass_span": [1.0, 5.0], "op_spans": [[1.0, 2.0], [2.0, 5.0]]}
    stops = [(0.5, 0.7), (2.5, 3.0)]
    windows = [(0.5, [1.0]), (2.5, [2.0, 4.0])]
    out = worked_out(result, stops, windows, calibrate=True)
    assert out["setup_s"] == pytest.approx(0.8)
    assert out["wall_s"] == pytest.approx(3.5)
    assert out["op_s"] == pytest.approx([1.0, 2.5])
    assert out["cal_s"] == [2.0, 4.0]


def _sweep_with(rows):
    sweep = Sweep.__new__(Sweep)
    sweep.tables = [SimpleNamespace(name="ex51", rows=[
        SimpleNamespace(delta=d, failures=0, rel_error_mean=e) for d, e in rows
    ])]
    return sweep


def test_sweep_check_needs_the_noisy_mean_above_the_noise_free_one():
    assert _sweep_with([(0.001, 8e-4), (0.0, 1e-12)]).check() == []
    problems = _sweep_with([(0.001, 8e-5), (0.0, 9e-5)]).check()
    assert len(problems) == 1 and "not decreasing" in problems[0]
