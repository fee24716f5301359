"""Config parsing and file artifacts: round trips and failure diagnostics."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracmim import (
    ConfigError,
    ContourQuadrature,
    ExperimentSpec,
    ExperimentTable,
    GridSpec,
    InversionConfig,
    InversionResult,
    ModelParams,
    ObservationSeries,
    ReplicateSummary,
    ValidationError,
    load_config,
    parse_config,
    read_csv,
    read_observation,
    solve_forward,
    write_observation,
)
from fracmim.experiments import DEFAULT_GRID, DEFAULT_NOISE_LEVELS
from fracmim.inversion import IterationRecord, _noise_key
from fracmim.io import (
    config_document,
    write_csv,
    write_experiment_table,
    write_inversion_report,
    write_reference_csv,
    write_solution_csv,
)
from conftest import admissible_draw

PARAMS_DOC = {
    "P": 5.0, "R1": 2.0, "R2": 2.0, "beta": 0.5, "omega": 1.5,
    "lambda": 0.05, "mu": 0.1, "alpha": 0.8, "gamma": 0.25,
}


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_minimal_defaults():
    spec = parse_config({"params": dict(PARAMS_DOC)})
    assert spec.name == "custom"
    assert spec.params.lam == 0.05  # JSON "lambda" maps onto the lam field
    assert spec.params.alpha == 0.8 and spec.params.gamma == 0.25
    assert spec.grid == DEFAULT_GRID
    assert spec.x0 == 0.5
    assert spec.noise_levels == DEFAULT_NOISE_LEVELS
    assert spec.replicates == 10 and spec.seed == 1234
    assert spec.inversion == InversionConfig()
    assert spec.quadrature.nodes == 24 and spec.quadrature.tolerance == 1e-6
    assert spec.reference_points == () and spec.exact_orders is None
    assert spec.out_dir is None


def test_parse_config_full_round_trip():
    doc = {
        "name": "demo",
        "params": dict(PARAMS_DOC),
        "grid": {"m": 8, "n": 20, "T": 10.0},
        "x0": 0.25,
        "noise_levels": [0.01, 0.0],
        "replicates": 3,
        "seed": 7,
        "inversion": {"z0": [0.5, 0.5], "j0": 3, "sigma": 1.2, "max_iter": 50,
                      "step_tol": 1e-7, "clamp_margin": 0.02},
        "quadrature": {"nodes": 32, "tolerance": 1e-5},
        "reference_points": [[0.5, 10.0], [0.25, 50.0]],
        "exact_orders": [0.8, 0.25],
        "out_dir": "results",
    }
    spec = parse_config(doc)
    assert spec.name == "demo"
    assert spec.grid == GridSpec(8, 20, 10.0)
    assert spec.x0 == 0.25
    assert spec.noise_levels == (0.01, 0.0)
    assert spec.replicates == 3 and spec.seed == 7
    assert spec.inversion == InversionConfig(
        z0=(0.5, 0.5), j0=3, sigma=1.2, max_iter=50,
        step_tol=1e-7, clamp_margin=0.02,
    )
    assert spec.quadrature.nodes == 32 and spec.quadrature.tolerance == 1e-5
    assert spec.reference_points == ((0.5, 10.0), (0.25, 50.0))
    assert spec.exact_orders == (0.8, 0.25)
    assert spec.out_dir == "results"


def _unit(lo=0.0, hi=1.0, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


_pairs = st.tuples(_unit(-2.0, 2.0), _unit(-2.0, 2.0))

_specs = st.builds(
    ExperimentSpec,
    params=st.integers(0, 2**32 - 1).map(lambda s: admissible_draw(np.random.default_rng(s))),
    name=st.text(min_size=1, max_size=8),
    grid=st.builds(GridSpec, m=st.integers(3, 500), n=st.integers(1, 5000),
                   T=_unit(1e-3, 1e4)),
    x0=_unit(exclude_min=True, exclude_max=True),
    noise_levels=st.lists(_unit(), max_size=5, unique_by=_noise_key).map(tuple),
    replicates=st.integers(1, 50),
    inversion=st.builds(
        InversionConfig, z0=_pairs, j0=st.integers(1, 20), sigma=_unit(1e-3, 10.0),
        max_iter=st.integers(1, 500), step_tol=_unit(1e-14, 1e-2),
        clamp_margin=_unit(1e-4, 0.19),
    ),
    quadrature=st.builds(ContourQuadrature, nodes=st.integers(8, 32),
                         tolerance=_unit(1e-12, 1e-2)),
    seed=st.integers(0, 2**31),
    reference_points=st.lists(_pairs, max_size=3).map(tuple),
    exact_orders=st.none() | st.tuples(_unit(0.01, 0.99), _unit(0.01, 0.99)),
    out_dir=st.none() | st.text(max_size=8),
)


@given(_specs)
def test_config_document_round_trips(spec):
    doc = config_document(spec)
    assert json.loads(json.dumps(doc)) == doc  # plain JSON values only
    assert parse_config(doc) == spec


@pytest.mark.parametrize(
    "mutate, msg",
    [
        (lambda d: d.pop("params"), 'missing required section "params"'),
        (lambda d: d["params"].pop("P"), 'missing required field "P" in "params"'),
        (lambda d: d["params"].pop("lambda"),
         'missing required field "lambda" in "params"'),
        (lambda d: d["params"].update(lam=0.05),
         'unknown field\\(s\\) in "params": lam'),
        (lambda d: d.update(grid={"m": 8, "n": 20, "T": 10.0, "dt": 0.5}),
         'unknown field\\(s\\) in "grid": dt'),
        (lambda d: d.update(extra=1), 'unknown field\\(s\\) in "config": extra'),
        (lambda d: d.update(inversion={"jacobian_step": 1e-3}),
         'unknown field\\(s\\) in "inversion": jacobian_step'),
        (lambda d: d["params"].update(P="five"),
         'field "P" in "params" must be a number'),
        (lambda d: d.update(grid={"m": 8.5}),
         'field "m" in "grid" must be an integer'),
        (lambda d: d.update(inversion={"z0": [0.5]}),
         'field "z0" in "inversion" must be a pair of numbers'),
        (lambda d: d.update(noise_levels=0.01),
         'field "noise_levels" must be a list of numbers'),
        (lambda d: d.update(noise_levels=[0.01, "high"]),
         'field "noise_levels" must be a list of numbers'),
        (lambda d: d.update(out_dir=7), 'field "out_dir" must be a string path'),
        (lambda d: d.update(reference_points=[[0.5]]),
         'field "entry 0" in "reference_points" must be a pair of numbers'),
    ],
)
def test_parse_config_diagnostics(mutate, msg):
    doc = {"params": dict(PARAMS_DOC)}
    mutate(doc)
    with pytest.raises(ConfigError, match=msg):
        parse_config(doc)


def test_parse_config_rejects_non_object():
    with pytest.raises(ConfigError, match="root must be a JSON object"):
        parse_config([1, 2, 3])


def test_load_config_names_spec_after_file(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"params": PARAMS_DOC}), encoding="utf-8")
    assert load_config(path).name == "bench"


def test_load_config_syntax_error_has_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "params": {,}\n}\n', encoding="utf-8")
    with pytest.raises(ConfigError, match="line 2 column 14"):
        load_config(path)
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        load_config(path)


def test_load_config_semantic_error_names_file(tmp_path):
    path = tmp_path / "nop.json"
    path.write_text("{}", encoding="utf-8")
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        load_config(path)


def test_load_config_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        load_config(tmp_path / "absent.json")


# ---------------------------------------------------------------------------
# CSV primitives


def test_csv_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((17, 3)) * 10.0 ** rng.integers(-12, 12, size=(17, 3))
    path = tmp_path / "data.csv"
    write_csv(path, ["a", "b", "c"], rows)
    header, back = read_csv(path)
    assert header == ["a", "b", "c"]
    assert np.array_equal(back, rows)  # 17 significant digits round-trip doubles


def test_read_csv_row_width_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n4,5\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="row 2 has 2 fields, expected 3"):
        read_csv(path)


def test_read_csv_non_numeric_cell_named(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,u1\n1,0.5\n2,oops\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="row 2: non-numeric value 'oops' in column 'u1'"):
        read_csv(path)


def test_read_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValidationError, match="empty file, expected a CSV header"):
        read_csv(path)


# ---------------------------------------------------------------------------
# artifact writers


def test_solution_csv_layout(tmp_path, bench_params):
    grid = GridSpec(4, 3, 6.0)
    sol = solve_forward(bench_params, grid)
    path = tmp_path / "solution.csv"
    write_solution_csv(path, sol)
    header, data = read_csv(path)
    assert header == ["x", "t", "u1", "u2"]
    assert data.shape == ((grid.m + 1) * (grid.n + 1), 4)
    # time-major: first block is t=0, x ascending
    assert np.array_equal(data[: grid.m + 1, 0], grid.space_nodes())
    assert np.all(data[: grid.m + 1, 1] == 0.0)
    assert data[-1, 0] == 1.0 and data[-1, 1] == 6.0
    assert data[-1, 2] == sol.u1[-1, -1] and data[-1, 3] == sol.u2[-1, -1]


def test_observation_round_trip_with_sidecar(tmp_path):
    obs = ObservationSeries(
        x0=0.5, times=np.array([1.0, 2.0, 5.0]), values=np.array([0.1, 0.25, 0.4]),
        noise_level=0.01, seed=42,
    )
    path = tmp_path / "obs.csv"
    write_observation(path, obs)
    assert (tmp_path / "obs.json").exists()
    back = read_observation(path, x0=0.125)  # sidecar overrides the argument
    assert back.x0 == 0.5
    assert back.noise_level == 0.01 and back.seed == 42
    assert np.array_equal(back.times, obs.times)
    assert np.array_equal(back.values, obs.values)


def test_observation_fallback_without_sidecar(tmp_path):
    path = tmp_path / "obs.csv"
    write_csv(path, ["t", "u1"], [(1.0, 0.1), (2.0, 0.2)])
    back = read_observation(path, x0=0.25)
    assert back.x0 == 0.25 and back.noise_level == 0.0 and back.seed is None
    with pytest.raises(ValidationError, match="supply x0 explicitly"):
        read_observation(path)


def test_observation_rejects_bad_header(tmp_path):
    path = tmp_path / "obs.csv"
    write_csv(path, ["time", "value"], [(1.0, 0.1)])
    with pytest.raises(ValidationError, match="expected header t,u1"):
        read_observation(path, x0=0.5)


def test_observation_rejects_non_finite(tmp_path):
    path = tmp_path / "obs.csv"
    write_csv(path, ["t", "u1"], [(1.0, 0.1), (2.0, math.nan)])
    with pytest.raises(ValidationError, match="non-finite value at row 2"):
        read_observation(path, x0=0.5)


def test_reference_csv_header(tmp_path):
    path = tmp_path / "reference.csv"
    write_reference_csv(path, [(0.5, 10.0, 0.03, 0.02, 1e-8)])
    header, data = read_csv(path)
    assert header == ["x", "t", "u1_ref", "u2_ref", "est_rel_err"]
    assert data.shape == (1, 5)


def _result(rel_error):
    history = [
        IterationRecord(z=(0.5, 0.5), kappa=0.989, residual_norm=0.1, step_norm=0.2),
        IterationRecord(z=(0.7, 0.3), kappa=0.973, residual_norm=0.05, step_norm=0.1),
    ]
    return InversionResult(
        z_inv=(0.8, 0.25), rel_error=rel_error, iterations=2,
        history=history, converged=True, stop_reason="step_tol",
    )


def test_inversion_report_keys(tmp_path):
    report_path = tmp_path / "report.json"
    trace_path = tmp_path / "trace.csv"
    write_inversion_report(report_path, _result(1e-6), trace_path)
    doc = json.loads(report_path.read_text(encoding="utf-8"))
    assert doc["z_inv"] == {"alpha": 0.8, "gamma": 0.25}
    assert doc["iterations"] == 2 and doc["converged"] is True
    assert doc["stop_reason"] == "step_tol"
    assert doc["rel_error"] == 1e-6
    assert [h["kappa"] for h in doc["history"]] == [0.989, 0.973]
    header, data = read_csv(trace_path)
    assert header == ["iteration", "alpha", "gamma", "kappa", "residual_norm", "step_norm"]
    assert data.shape == (2, 6)
    assert list(data[:, 0]) == [0.0, 1.0]


def test_inversion_report_omits_unknown_error(tmp_path):
    report_path = tmp_path / "report.json"
    write_inversion_report(report_path, _result(None))
    doc = json.loads(report_path.read_text(encoding="utf-8"))
    assert "rel_error" not in doc


def test_experiment_table_files(tmp_path):
    table = ExperimentTable(
        name="demo",
        z_exact=(0.8, 0.25),
        rows=[
            ReplicateSummary(delta=0.05, replicates=10, failures=1,
                             z_mean=(0.81, 0.24), rel_error_mean=0.03,
                             iterations_mean=14.5),
            ReplicateSummary(delta=0.01, replicates=10, failures=10,
                             z_mean=None, rel_error_mean=None, iterations_mean=None),
        ],
    )
    csv_path = tmp_path / "table.csv"
    md_path = tmp_path / "table.md"
    write_experiment_table(csv_path, md_path, table)
    header, data = read_csv(csv_path)
    assert header == ["delta", "alpha_mean", "gamma_mean", "rel_error_mean",
                      "iterations_mean", "failures", "replicates"]
    assert data[0, 1] == 0.81 and data[0, 5] == 1.0
    assert np.all(np.isnan(data[1, 1:5]))
    md = md_path.read_text(encoding="utf-8")
    assert "| noise level | recovered orders (mean) |" in md
    assert "[1/10 failed]" in md
    assert "FAILED (10/10)" in md
