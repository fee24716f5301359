"""Command-line behavior: artifacts, determinism, exit codes."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import fracmim
from fracmim import cli, read_csv, read_observation
from fracmim.cli import main
from fracmim.experiments import BUILTIN_EXPERIMENTS, ExperimentTable
from fracmim.solver import scheme_constants

CONFIG = {
    "params": {
        "P": 5.0, "R1": 2.0, "R2": 2.0, "beta": 0.5, "omega": 1.5,
        "lambda": 0.05, "mu": 0.1, "alpha": 0.8, "gamma": 0.25,
    },
    "grid": {"m": 8, "n": 20, "T": 10.0},
    "x0": 0.5,
    "noise_levels": [0.01, 0.0],
    "replicates": 2,
    "inversion": {"z0": [0.5, 0.5]},
    "reference_points": [[0.0, 5.0], [0.5, 5.0]],
    "exact_orders": [0.8, 0.25],
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(CONFIG), encoding="utf-8")
    return path


def _run(*argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# runtime dependencies

# Runs in a fresh interpreter where every import of scipy raises.
_NUMPY_ONLY = """
import sys
sys.modules["scipy"] = None
import fracmim
from fracmim.cli import main

cfg, out = sys.argv[1:]
runs = [
    ["forward", "--config", cfg, "--out", out + "/fwd"],
    ["make-obs", "--config", cfg, "--out", out + "/inv"],
    ["invert", "--config", cfg, "--out", out + "/inv", "--obs", out + "/inv/obs_clean.csv"],
    ["reference", "--config", cfg, "--out", out + "/ref"],
]
sys.exit(max(main([*argv, "--quiet"]) for argv in runs))
"""


def test_runtime_needs_numpy_only(tmp_path):
    # scipy is a test dependency only: the package and every subcommand
    # must import and run without it, and start quickly.
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(dict(CONFIG, reference_points=[[0.5, 5.0]])), encoding="utf-8")
    src = str(Path(fracmim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_ONLY, str(cfg), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "inv" / "inversion_report.json").is_file()
    assert read_csv(tmp_path / "ref" / "reference.csv")[1].shape == (1, 5)
    assert elapsed < 2.0


# ---------------------------------------------------------------------------
# forward


def test_forward_writes_fields_and_observation(tmp_path, config_path, capsys):
    out = tmp_path / "run"
    assert _run("forward", "--config", config_path, "--out", out) == 0
    header, data = read_csv(out / "solution.csv")
    assert header == ["x", "t", "u1", "u2"]
    assert data.shape == (9 * 21, 4)
    u1 = data[:, 2]
    assert np.all(u1 >= -1e-10) and np.all(u1 <= 1.0 + 1e-6)
    obs = read_observation(out / "observation.csv")
    assert obs.x0 == 0.5 and len(obs) == 20
    assert "wrote" in capsys.readouterr().out


def test_forward_reports_step_count_and_margins(tmp_path, config_path, capsys):
    assert _run("forward", "--config", config_path, "--out", tmp_path / "run") == 0
    spec = fracmim.load_config(config_path)
    mobile, immobile = scheme_constants(spec.params, spec.grid).dominance_margins()
    assert mobile > 1 and immobile > 1
    line = f"20 time steps, dominance margins {mobile:.6g} (mobile) and {immobile:.6g} (immobile)"
    assert line in capsys.readouterr().out.splitlines()


def test_forward_quiet_suppresses_stdout(tmp_path, config_path, capsys):
    assert _run("forward", "--config", config_path, "--out", tmp_path / "q", "--quiet") == 0
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# reference


def test_reference_values_at_config_points(tmp_path, config_path):
    out = tmp_path / "ref"
    assert _run("reference", "--config", config_path, "--out", out) == 0
    header, data = read_csv(out / "reference.csv")
    assert header == ["x", "t", "u1_ref", "u2_ref", "est_rel_err"]
    assert data.shape == (2, 5)
    # inlet row: u1(0, t) = 1 for t > 0, up to quadrature tolerance
    assert data[0, 2] == pytest.approx(1.0, abs=1e-6)
    assert 0.0 < data[1, 2] < 1.0


def test_reference_no_points_writes_header_only(tmp_path):
    doc = {k: v for k, v in CONFIG.items() if k != "reference_points"}
    cfg = tmp_path / "noref.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "ref"
    assert _run("reference", "--config", cfg, "--out", out) == 0
    header, data = read_csv(out / "reference.csv")
    assert header == ["x", "t", "u1_ref", "u2_ref", "est_rel_err"]
    assert data.shape == (0, 5)


def test_reference_unconverged_point_warns_and_writes_nan(tmp_path, capsys):
    # No contour reaches a relative tolerance of 1e-300: the point is
    # reported and written as NaN, and the command still succeeds.
    doc = dict(CONFIG, reference_points=[[0.5, 5.0]], quadrature={"tolerance": 1e-300})
    cfg = tmp_path / "tight.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "ref"
    assert _run("reference", "--config", cfg, "--out", out) == 0
    assert "warning: (0.5, 5): " in capsys.readouterr().err
    _, data = read_csv(out / "reference.csv")
    assert data.shape == (1, 5) and list(data[0, :2]) == [0.5, 5.0]
    assert np.all(np.isnan(data[0, 2:]))


# ---------------------------------------------------------------------------
# make-obs


def test_make_obs_writes_clean_and_noisy(tmp_path, config_path):
    out = tmp_path / "obs"
    assert _run("make-obs", "--config", config_path, "--out", out) == 0
    clean = read_observation(out / "obs_clean.csv")
    zero = read_observation(out / "obs_noise_0.csv")
    noisy = read_observation(out / "obs_noise_0.01.csv")
    assert np.array_equal(zero.values, clean.values)
    assert not np.array_equal(noisy.values, clean.values)
    assert np.max(np.abs(noisy.values - clean.values)) <= 0.01
    assert noisy.noise_level == 0.01 and noisy.seed is not None


def test_make_obs_deterministic_and_seed_sensitive(tmp_path, config_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    _run("make-obs", "--config", config_path, "--out", a, "--quiet")
    _run("make-obs", "--config", config_path, "--out", b, "--quiet")
    _run("make-obs", "--config", config_path, "--out", c, "--seed", 999, "--quiet")
    name = "obs_noise_0.01.csv"
    assert (a / name).read_bytes() == (b / name).read_bytes()
    assert (a / name).read_bytes() != (c / name).read_bytes()


# ---------------------------------------------------------------------------
# invert


def test_invert_recovers_orders_from_clean_file(tmp_path, config_path, capsys):
    out = tmp_path / "inv"
    _run("make-obs", "--config", config_path, "--out", out, "--quiet")
    assert _run("invert", "--config", config_path, "--out", out,
                "--obs", out / "obs_clean.csv") == 0
    report = json.loads((out / "inversion_report.json").read_text(encoding="utf-8"))
    assert report["converged"] is True
    assert report["z_inv"]["alpha"] == pytest.approx(0.8, abs=1e-4)
    assert report["z_inv"]["gamma"] == pytest.approx(0.25, abs=1e-4)
    assert report["rel_error"] <= 1e-6  # exact_orders present in the config
    header, trace = read_csv(out / "convergence_trace.csv")
    assert header == [
        "iteration", "alpha", "gamma", "kappa", "residual_norm", "step_norm", "sigma_min"
    ]
    assert trace.shape[0] == report["iterations"]
    assert np.all(trace[:, 6] > 0.0)
    assert "recovered (alpha, gamma)" in capsys.readouterr().out


def test_invert_without_ground_truth_omits_error(tmp_path, config_path):
    doc = {k: v for k, v in CONFIG.items() if k != "exact_orders"}
    cfg = tmp_path / "blind.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "inv"
    _run("make-obs", "--config", config_path, "--out", out, "--quiet")
    assert _run("invert", "--config", cfg, "--out", out,
                "--obs", out / "obs_clean.csv", "--quiet") == 0
    report = json.loads((out / "inversion_report.json").read_text(encoding="utf-8"))
    assert "rel_error" not in report


def test_invert_requires_obs_flag(config_path):
    with pytest.raises(SystemExit) as exc:
        _run("invert", "--config", config_path)
    assert exc.value.code == 1


@pytest.mark.parametrize("command", ["forward", "reference", "invert"])
def test_seed_is_a_usage_error_where_no_seed_is_read(tmp_path, config_path, capsys, command):
    # Only make-obs and experiment read a seed; elsewhere --seed is refused.
    out = tmp_path / "run"
    obs = ["--obs", tmp_path / "absent.csv"] if command == "invert" else []
    with pytest.raises(SystemExit) as exc:
        _run(command, "--config", config_path, "--out", out, *obs, "--seed", 1, "--quiet")
    assert exc.value.code == 1
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not out.exists()


def test_invert_missing_obs_file_is_io_error(tmp_path, config_path, capsys):
    assert _run("invert", "--config", config_path, "--out", tmp_path,
                "--obs", tmp_path / "absent.csv") == 3
    assert "i/o error" in capsys.readouterr().err


def test_invert_broken_sidecar_exits_one(tmp_path, config_path, capsys):
    out = tmp_path / "inv"
    _run("make-obs", "--config", config_path, "--out", out, "--quiet")
    (out / "obs_clean.json").write_text("{not json", encoding="utf-8")
    assert _run("invert", "--config", config_path, "--out", out,
                "--obs", out / "obs_clean.csv", "--quiet") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "obs_clean.json: invalid JSON" in err


@pytest.mark.parametrize("x0", ["NaN", "Infinity", "1e400"])
def test_invert_non_finite_sidecar_x0_exits_one(tmp_path, config_path, capsys, x0):
    out = tmp_path / "inv"
    _run("make-obs", "--config", config_path, "--out", out, "--quiet")
    sidecar = out / "obs_clean.json"
    sidecar.write_text(f'{{"x0": {x0}, "noise_level": 0.0, "seed": null}}', encoding="utf-8")
    assert _run("invert", "--config", config_path, "--out", out,
                "--obs", out / "obs_clean.csv", "--quiet") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "obs_clean.csv: x0 must be a finite number" in err
    assert not (out / "inversion_report.json").exists()


def test_make_obs_colliding_noise_labels_exit_one(tmp_path, capsys):
    cfg = tmp_path / "labels.json"
    cfg.write_text(json.dumps(dict(CONFIG, noise_levels=[0.5, 0.5000001])), encoding="utf-8")
    out = tmp_path / "obs"
    assert _run("make-obs", "--config", cfg, "--out", out, "--quiet") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "noise levels 0.5 and 0.5000001 share the label" in err
    assert not out.exists()


def test_make_obs_signed_zero_noise_levels_exit_one(tmp_path, capsys):
    # 0.0 and -0.0 key one seed stream under two labels: two identical files
    cfg = tmp_path / "zeros.json"
    cfg.write_text(json.dumps(dict(CONFIG, noise_levels=[0.0, -0.0])), encoding="utf-8")
    out = tmp_path / "obs"
    assert _run("make-obs", "--config", cfg, "--out", out, "--quiet") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "noise levels 0 and -0 share one seed stream" in err
    assert not out.exists()


def test_invert_out_of_range_exact_orders_exits_one(tmp_path, config_path, capsys):
    out = tmp_path / "inv"
    _run("make-obs", "--config", config_path, "--out", out, "--quiet")
    doc = dict(CONFIG, exact_orders=[float("nan"), -5.0])
    cfg = tmp_path / "bad_truth.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")  # writes NaN, which json reads back
    assert _run("invert", "--config", cfg, "--out", out,
                "--obs", out / "obs_clean.csv", "--quiet") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exact_orders (nan, -5.0) must be orders in (0, 1]" in err
    assert not (out / "inversion_report.json").exists()


@pytest.mark.parametrize("field", ["sigma", "step_tol"])
def test_invert_start_point_convergence_config_exits_one(tmp_path, config_path, capsys, field):
    # Neither can ever give a finite step test; both are rejected at parse time.
    out = tmp_path / "inv"
    _run("make-obs", "--config", config_path, "--out", out, "--quiet")
    doc = dict(CONFIG, inversion={"z0": [0.5, 0.5], field: float("inf")})
    cfg = tmp_path / "flat.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")  # writes Infinity, which json reads back
    assert _run("invert", "--config", cfg, "--out", out,
                "--obs", out / "obs_clean.csv", "--quiet") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{field} must be positive and finite" in err
    assert not (out / "inversion_report.json").exists()


def test_invert_huge_observation_time_exits_one(tmp_path, config_path, capsys):
    # A finite time far beyond the grid must be named, not cast to int first.
    obs = tmp_path / "huge.csv"
    obs.write_text("t,u1\n1e300,0.2\n", encoding="utf-8")
    assert _run("invert", "--config", config_path, "--out", tmp_path / "inv",
                "--obs", obs, "--quiet") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "times not aligned with grid times: [1e+300]" in err


def test_invert_header_only_observation_exits_one(tmp_path, config_path, capsys):
    obs = tmp_path / "empty.csv"
    obs.write_text("t,u1\n", encoding="utf-8")
    assert _run("invert", "--config", config_path, "--out", tmp_path / "inv",
                "--obs", obs, "--quiet") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "empty.csv: an observation series needs at least one sample" in err


# ---------------------------------------------------------------------------
# experiment


def test_experiment_from_config(tmp_path, config_path, capsys):
    out = tmp_path / "exp"
    assert _run("experiment", "--config", config_path, "--out", out) == 0
    header, data = read_csv(out / "table_demo.csv")
    assert header == ["delta", "alpha_mean", "gamma_mean", "rel_error_mean",
                      "iterations_mean", "failures", "replicates",
                      "step_tol", "residual_rise", "max_iter"]
    assert data.shape == (2, 10)
    assert list(data[:, 0]) == [0.01, 0.0]
    assert np.all(data[:, 5] == 0.0)  # no failed replicates
    # Every successful replicate is counted under one stop reason.
    assert np.array_equal(data[:, 7:].sum(axis=1), data[:, 6] - data[:, 5])
    assert data[1, 3] <= 1e-6  # noise-free row recovers the orders
    md = (out / "table_demo.md").read_text(encoding="utf-8")
    assert "| noise level |" in md
    sidecar = json.loads((out / "table_demo.json").read_text(encoding="utf-8"))
    assert sidecar["name"] == "demo" and sidecar["seed"] == 1234
    assert sidecar["params"]["lambda"] == 0.05
    assert sidecar["grid"] == {"m": 8, "n": 20, "T": 10.0}
    assert sidecar["inversion"]["z0"] == [0.5, 0.5]
    captured = capsys.readouterr()
    assert "delta=0.01 done" in captured.err
    assert "| noise level |" in captured.out
    stem = out / "table_demo"
    assert captured.out.endswith(f"wrote {stem}.csv, {stem}.md and {stem}.json\n")


def test_experiment_sidecar_reruns_the_table(tmp_path, config_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert _run("experiment", "--config", config_path, "--out", first,
                "--seed", 7, "--quiet") == 0
    # the sidecar records the seed that was used, not the config's
    assert _run("experiment", "--config", first / "table_demo.json",
                "--out", second, "--quiet") == 0
    for name in ("table_demo.csv", "table_demo.json"):
        assert (second / name).read_bytes() == (first / name).read_bytes()


def test_experiment_builtin_id_takes_the_seed_override(tmp_path, monkeypatch):
    seen = []

    def fake_run(spec, progress=None):
        seen.append(spec)
        return ExperimentTable(spec)

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    assert BUILTIN_EXPERIMENTS["ex51"].seed != 7
    assert _run("experiment", "ex51", "--seed", 7, "--out", tmp_path, "--quiet") == 0
    (spec,) = seen
    assert spec.seed == 7
    assert spec.params == BUILTIN_EXPERIMENTS["ex51"].params
    sidecar = json.loads((tmp_path / "table_ex51.json").read_text(encoding="utf-8"))
    assert sidecar["name"] == "ex51" and sidecar["seed"] == 7


@pytest.mark.parametrize(
    "name, msg",
    [
        ("run/one", "holds a path separator or a NUL"),
        ("a\0b", "holds a path separator or a NUL"),
        ("x" * 250, "a table name of 250 characters makes table_<name>.json longer than 255"),
        ("x" * 243 + "\u00e9", "a table name of 244 characters"),  # a file name of 256 bytes
        ("\ud800", "cannot be encoded as a file name"),
    ],
    ids=["separator", "nul", "too-long", "too-long-in-bytes", "unencodable"],
)
def test_experiment_refuses_a_name_that_cannot_name_its_files(
    tmp_path, monkeypatch, capsys, name, msg
):
    calls = []
    monkeypatch.setattr(cli, "run_experiment", lambda spec, progress=None: calls.append(spec))
    cfg = tmp_path / "named.json"
    cfg.write_text(json.dumps(dict(CONFIG, name=name)), encoding="utf-8")
    out = tmp_path / "out"
    assert _run("experiment", "--config", cfg, "--out", out) == 1
    assert calls == []
    assert list(out.rglob("*")) == []
    assert msg in capsys.readouterr().err


def test_experiment_takes_the_longest_name(tmp_path, monkeypatch):
    # table_<name>.json of 255 bytes, two of them in one character
    name = "x" * 242 + "\u00e9"
    monkeypatch.setattr(cli, "run_experiment", lambda spec, progress=None: ExperimentTable(spec))
    cfg = tmp_path / "named.json"
    cfg.write_text(json.dumps(dict(CONFIG, name=name)), encoding="utf-8")
    assert _run("experiment", "--config", cfg, "--out", tmp_path / "out", "--quiet") == 0
    sidecar = tmp_path / "out" / f"table_{name}.json"
    assert len(os.fsencode(sidecar.name)) == 255
    assert json.loads(sidecar.read_text(encoding="utf-8"))["name"] == name


def test_experiment_help_lists_the_builtin_ids(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    ids = re.search(r"builtin experiment id \(([^)]*)\)", text).group(1)
    assert ids.split(", ") == sorted(BUILTIN_EXPERIMENTS)


def test_experiment_unknown_id(capsys):
    assert _run("experiment", "ex99") == 1
    assert "valid ids: ex51, ex52, ex53" in capsys.readouterr().err


def test_experiment_id_and_config_conflict(config_path, capsys):
    assert _run("experiment", "ex51", "--config", config_path) == 1
    assert "not both" in capsys.readouterr().err


def test_experiment_needs_some_source(capsys):
    assert _run("experiment") == 1
    assert "builtin table id" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# failure modes


def test_bad_config_json_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json", encoding="utf-8")
    assert _run("forward", "--config", cfg) == 1
    assert "config parse error" in capsys.readouterr().err


def test_numerical_failure_exits_two(tmp_path, capsys):
    doc = json.loads(json.dumps(CONFIG))
    doc["params"]["alpha"] = 0.99
    doc["grid"] = {"m": 1000, "n": 1, "T": 1e307}
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert _run("forward", "--config", cfg, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith("numerical failure: scheme constants overflow")


def test_out_dir_collision_exits_three(tmp_path, config_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("file, not a directory", encoding="utf-8")
    assert _run("forward", "--config", config_path, "--out", blocker) == 3
    assert "i/o error" in capsys.readouterr().err


def test_out_dir_under_a_file_exits_three_before_running(
    tmp_path, config_path, capsys, monkeypatch
):
    # judged on the nearest existing ancestor, before the table runs
    def no_run(spec, progress=None):
        raise AssertionError("ran the table")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    blocker = tmp_path / "blocked"
    blocker.write_text("file, not a directory", encoding="utf-8")
    out = blocker / "a" / "b"
    assert _run("experiment", "--config", config_path, "--out", out, "--quiet") == 3
    assert capsys.readouterr().err == (
        f"i/o error: output directory {out}: {blocker} is not a directory\n"
    )


def _refusals(tmp_path, config_path):
    slash = tmp_path / "slash.json"
    slash.write_text(json.dumps(dict(CONFIG, name="run/one")), encoding="utf-8")
    early = tmp_path / "early.json"
    early.write_text(json.dumps(dict(CONFIG, reference_points=[[0.5, 1e-250]])), encoding="utf-8")
    bad_obs = tmp_path / "bad.csv"
    bad_obs.write_text("t,u1\n", encoding="utf-8")
    overflow = json.loads(json.dumps(CONFIG))
    overflow["params"]["alpha"] = 0.99
    overflow["grid"] = {"m": 1000, "n": 1, "T": 1e307}
    huge = tmp_path / "overflow.json"
    huge.write_text(json.dumps(overflow), encoding="utf-8")
    return {
        "table-name": (["experiment", "--config", slash], 1, "holds a path separator"),
        "reference-time": (["reference", "--config", early], 1,
                           "needs x in [0,1] and a positive finite t in [1e-200, 1e+300]"),
        "observation-file": (["invert", "--config", config_path, "--obs", bad_obs], 1,
                             "an observation series needs at least one sample"),
        "numerical": (["forward", "--config", huge], 2, "scheme constants overflow"),
    }


@pytest.mark.parametrize("case", ["table-name", "reference-time", "observation-file", "numerical"])
def test_a_refused_run_leaves_no_output_directory(tmp_path, config_path, capsys, case):
    argv, code, message = _refusals(tmp_path, config_path)[case]
    out = tmp_path / "a" / "b"
    assert _run(*argv, "--out", out, "--quiet") == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "a").exists()


def test_unwritable_out_dir_exits_three(tmp_path, config_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    out = tmp_path / "ro"
    assert _run("forward", "--config", config_path, "--out", out) == 3
    assert capsys.readouterr().err == f"i/o error: output directory {out} is not writable\n"
    assert not (out / "solution.csv").exists()


@pytest.mark.parametrize("source", ["id", "config"])
def test_negative_seed_exits_one(tmp_path, capsys, source):
    # The seed feeds np.random.SeedSequence, which takes no negative entropy.
    cfg = tmp_path / "neg.json"
    cfg.write_text(json.dumps(dict(CONFIG, seed=-1)), encoding="utf-8")
    out = tmp_path / "out"
    argv = (["experiment", "ex51", "--seed", -1] if source == "id"
            else ["make-obs", "--config", cfg])
    assert _run(*argv, "--out", out, "--quiet") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed must be an integer >= 0" in err
    assert not out.exists()


def test_invalid_params_exit_one(tmp_path, capsys):
    doc = json.loads(json.dumps(CONFIG))
    doc["params"]["alpha"] = 1.5
    cfg = tmp_path / "badalpha.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert _run("forward", "--config", cfg) == 1
    assert "alpha must lie in (0,1)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["experiment", "make-obs"])
def test_seed_beyond_a_double_exits_one_before_marching(
    tmp_path, config_path, capsys, monkeypatch, command
):
    # The table's sidecar could not hold such a seed, so nothing may run.
    def no_march(*args, **kwargs):
        raise AssertionError("marched")

    monkeypatch.setattr(cli, "solve_forward", no_march)
    monkeypatch.setattr(cli, "run_experiment", no_march)
    out = tmp_path / "out"
    assert _run(command, "--config", config_path, "--seed", 10**400, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed is too large for a float" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("grid", {"m": 8, "n": 20, "T": 10**400}, 'field "T" in "grid" is too large for a float'),
        ("noise_levels", [1e300], "noise level 1e+300 is too large to key a seed stream"),
    ],
)
def test_oversized_config_numbers_exit_one(tmp_path, capsys, field, value, message):
    doc = json.loads(json.dumps(CONFIG))
    doc[field] = value
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert _run("make-obs", "--config", cfg, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
