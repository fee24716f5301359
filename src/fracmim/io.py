"""Config documents and file formats (JSON configs, CSV artifacts).

One JSON document describes an experiment; physical parameters are
always explicit while grid and algorithm knobs fall back to the package
defaults.  :func:`parse_config` reads that document and
:func:`config_document` writes it.  Every CSV artifact has a mandatory header, 17-significant-
digit decimal fields, and bare "\\n" line endings, so emitted files
round-trip through :func:`read_csv` bit-cleanly.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from .errors import ConfigError, ValidationError
from .experiments import DEFAULT_GRID, ExperimentSpec, ExperimentTable
from .inversion import InversionConfig, InversionResult
from .laplace import ContourQuadrature
from .model import ModelParams, ObservationSeries, SolutionGrid, _is_integer, _is_number

__all__ = [
    "parse_config",
    "config_document",
    "load_config",
    "write_csv",
    "read_csv",
    "write_solution_csv",
    "write_observation",
    "read_observation",
    "write_reference_csv",
    "write_inversion_report",
    "write_experiment_table",
]

_FMT = "{:.17g}"


def _fmt(v: float) -> str:
    return _FMT.format(float(v))


# ---------------------------------------------------------------------------
# Config documents

# (ModelParams field, JSON key): the model's lambda keeps its JSON spelling.
_PARAM_KEYS = tuple(
    (f.name, "lambda" if f.name == "lam" else f.name) for f in dataclasses.fields(ModelParams)
)


def _section(doc: dict, key: str, required: bool = False) -> dict:
    if key not in doc:
        if required:
            raise ConfigError(f'missing required section "{key}"')
        return {}
    sec = doc.pop(key)
    if not isinstance(sec, dict):
        raise ConfigError(f'section "{key}" must be a JSON object')
    return dict(sec)


def _take(sec: dict, section: str, key: str, kind):
    if key not in sec:
        raise ConfigError(f'missing required field "{key}" in "{section}"')
    v = sec.pop(key)
    if kind is tuple:
        return _pair(v, section, key)
    if kind is float:
        if not _is_number(v):
            raise ConfigError(f'field "{key}" in "{section}" must be a number')
        return float(v)
    if kind is int:
        if not _is_integer(v):
            raise ConfigError(f'field "{key}" in "{section}" must be an integer')
        return v
    return v


def _no_leftovers(sec: dict, section: str) -> None:
    if sec:
        raise ConfigError(
            f'unknown field(s) in "{section}": {", ".join(sorted(map(str, sec)))}'
        )


def _pair(v, section: str, key: str) -> tuple[float, float]:
    if not isinstance(v, (list, tuple)) or len(v) != 2 or not all(map(_is_number, v)):
        raise ConfigError(f'field "{key}" in "{section}" must be a pair of numbers')
    return float(v[0]), float(v[1])


def _fill(defaults, doc: dict, section: str):
    """``defaults`` with the fields that the optional section sets.

    Each field's JSON type follows the type of its default value.
    """
    sec = _section(doc, section)
    changes = {
        f.name: _take(sec, section, f.name, type(getattr(defaults, f.name)))
        for f in dataclasses.fields(defaults)
        if f.name in sec
    }
    _no_leftovers(sec, section)
    return dataclasses.replace(defaults, **changes)


def parse_config(doc: dict, name: str = "custom") -> ExperimentSpec:
    """Build an ExperimentSpec from a decoded JSON document.

    The "params" section is mandatory and must spell out every physical
    value (the model's lambda is the JSON key "lambda"); "grid", "x0",
    "noise_levels", "replicates", "seed", "inversion", "quadrature",
    "reference_points", "exact_orders", "out_dir" and "name" are
    optional, and what they leave out keeps the defaults of
    :class:`ExperimentSpec`, :class:`InversionConfig` and
    :class:`ContourQuadrature`.  Unknown keys anywhere are rejected by
    name, so typos cannot silently fall back to defaults.
    :func:`config_document` is the inverse.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    doc = dict(doc)

    psec = _section(doc, "params", required=True)
    params = ModelParams(
        **{field: _take(psec, "params", key, float) for field, key in _PARAM_KEYS}
    )
    _no_leftovers(psec, "params")
    kwargs: dict[str, Any] = {
        "params": params,
        "grid": _fill(DEFAULT_GRID, doc, "grid"),
        "inversion": _fill(InversionConfig(), doc, "inversion"),
        "quadrature": _fill(ContourQuadrature(), doc, "quadrature"),
    }

    if "x0" in doc:
        kwargs["x0"] = _take(doc, "config", "x0", float)
    if "noise_levels" in doc:
        levels = doc.pop("noise_levels")
        if not isinstance(levels, list) or not all(map(_is_number, levels)):
            raise ConfigError('field "noise_levels" must be a list of numbers')
        kwargs["noise_levels"] = tuple(float(v) for v in levels)
    for key in ("replicates", "seed"):
        if key in doc:
            kwargs[key] = _take(doc, "config", key, int)
    out_dir = doc.pop("out_dir", None)
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError('field "out_dir" must be a string path')
    spec_name = doc.pop("name", name)
    if not isinstance(spec_name, str):
        raise ConfigError('field "name" must be a string')

    points = doc.pop("reference_points", [])
    if not isinstance(points, list):
        raise ConfigError('field "reference_points" must be a list of [x, t] pairs')
    reference_points = tuple(
        _pair(pt, "reference_points", f"entry {i}") for i, pt in enumerate(points)
    )

    exact = doc.pop("exact_orders", None)
    exact_orders = _pair(exact, "config", "exact_orders") if exact is not None else None

    _no_leftovers(doc, "config")
    return ExperimentSpec(
        name=spec_name,
        reference_points=reference_points,
        exact_orders=exact_orders,
        out_dir=out_dir,
        **kwargs,
    )


def _fields_document(obj) -> dict:
    return {k: list(v) if isinstance(v, tuple) else v for k, v in dataclasses.asdict(obj).items()}


def config_document(spec: ExperimentSpec) -> dict:
    """The JSON document of ``spec``, defaults included.

    The inverse of :func:`parse_config`, with the same keys, sections
    and "lambda" spelling: ``parse_config(config_document(spec)) == spec``.
    The ``table_<name>.json`` sidecar of ``fracmim experiment`` is this
    document, so it reloads with ``fracmim experiment --config``.
    """
    return {
        "name": spec.name,
        "params": {key: getattr(spec.params, field) for field, key in _PARAM_KEYS},
        "grid": _fields_document(spec.grid),
        "x0": spec.x0,
        "noise_levels": list(spec.noise_levels),
        "replicates": spec.replicates,
        "seed": spec.seed,
        "inversion": _fields_document(spec.inversion),
        "quadrature": _fields_document(spec.quadrature),
        "reference_points": [list(pt) for pt in spec.reference_points],
        "exact_orders": None if spec.exact_orders is None else list(spec.exact_orders),
        "out_dir": spec.out_dir,
    }


def load_config(path: str | Path) -> ExperimentSpec:
    """Read and parse a JSON experiment config file.

    Syntax errors surface with line/column diagnostics; semantic errors
    name the offending field.  File-system problems propagate as OSError.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"config parse error in {path}: line {e.lineno} column {e.colno}: {e.msg}"
        ) from None
    try:
        return parse_config(doc, name=path.stem)
    except ValidationError as e:
        raise type(e)(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# CSV primitives


def write_csv(path: str | Path, header: list[str], rows: Iterable[Iterable[float]]) -> None:
    """Write numeric rows as decimal CSV: header line, 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def read_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Read a numeric CSV written by this package; returns (header, array).

    Any non-numeric cell is rejected with its row number ("row 1" is the
    first data row after the header).
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip() != ""]
    if not lines:
        raise ValidationError(f"{path}: empty file, expected a CSV header")
    header = lines[0].split(",")
    data = np.empty((len(lines) - 1, len(header)))
    for r, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValidationError(
                f"{path}: row {r} has {len(cells)} fields, expected {len(header)}"
            )
        for cidx, cell in enumerate(cells):
            try:
                data[r - 1, cidx] = float(cell)
            except ValueError:
                raise ValidationError(
                    f"{path}: row {r}: non-numeric value {cell!r} "
                    f"in column {header[cidx]!r}"
                ) from None
    return header, data


# ---------------------------------------------------------------------------
# Artifact writers/readers


def write_solution_csv(path: str | Path, sol: SolutionGrid) -> None:
    """Full space-time fields as rows (x, t, u1, u2), time-major order."""
    xs = sol.grid.space_nodes()
    ts = sol.grid.time_nodes()

    def rows():
        for k, t in enumerate(ts):
            for i, x in enumerate(xs):
                yield (x, t, sol.u1[i, k], sol.u2[i, k])

    write_csv(path, ["x", "t", "u1", "u2"], rows())


def write_observation(path: str | Path, obs: ObservationSeries) -> None:
    """Observation CSV (t, u1) plus a JSON sidecar with x0/noise/seed.

    The sidecar shares the CSV's path with a ".json" suffix and is what
    makes the series self-describing for later inversion runs.
    """
    path = Path(path)
    write_csv(path, ["t", "u1"], zip(obs.times, obs.values))
    sidecar = {
        "x0": obs.x0,
        "noise_level": obs.noise_level,
        "seed": obs.seed,
    }
    path.with_suffix(".json").write_text(
        json.dumps(sidecar, indent=2) + "\n", encoding="utf-8"
    )


def read_observation(path: str | Path, x0: float | None = None) -> ObservationSeries:
    """Read an observation CSV (t, u1), using its sidecar when present.

    The sidecar (same path with a ".json" suffix) is authoritative for
    the observation point; ``x0`` is the fallback when no sidecar
    exists.  Non-finite samples are rejected with their row number;
    inversion on silently-patched data would be meaningless.
    """
    path = Path(path)
    header, data = read_csv(path)
    if header[:2] != ["t", "u1"]:
        raise ValidationError(f"{path}: expected header t,u1, got {','.join(header)}")
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise ValidationError(f"{path}: non-finite value at row {int(bad[0]) + 1}")

    noise_level = 0.0
    seed = None
    sidecar_path = path.with_suffix(".json")
    if sidecar_path.exists():
        meta = json.loads(sidecar_path.read_text(encoding="utf-8"))
        x0 = meta.get("x0", x0)
        noise_level = float(meta.get("noise_level", 0.0))
        seed = meta.get("seed")
    if x0 is None:
        raise ValidationError(
            f"{path}: no sidecar {sidecar_path.name} found; supply x0 explicitly"
        )
    return ObservationSeries(
        x0=float(x0),
        times=data[:, 0],
        values=data[:, 1],
        noise_level=noise_level,
        seed=seed,
    )


def write_reference_csv(
    path: str | Path, rows: Iterable[tuple[float, float, float, float, float]]
) -> None:
    """Reference values as (x, t, u1_ref, u2_ref, est_rel_err) rows.

    Rows where the quadrature failed to converge carry nan fields; they
    are flagged upstream, not fatal.
    """
    write_csv(path, ["x", "t", "u1_ref", "u2_ref", "est_rel_err"], rows)


# Iteration-history columns, shared by the JSON report and the CSV trace.
_HISTORY_FIELDS = {
    "alpha": lambda rec: rec.z[0],
    "gamma": lambda rec: rec.z[1],
    "kappa": lambda rec: rec.kappa,
    "residual_norm": lambda rec: rec.residual_norm,
    "step_norm": lambda rec: rec.step_norm,
}


def write_inversion_report(
    path: str | Path, result: InversionResult, trace_path: str | Path | None = None
) -> None:
    """JSON report of one inversion, plus an optional CSV convergence trace.

    The rel_error key is present only when the true orders were known.
    """
    report: dict[str, Any] = {
        "z_inv": {"alpha": result.z_inv[0], "gamma": result.z_inv[1]},
        "iterations": result.iterations,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "history": [
            {key: value(rec) for key, value in _HISTORY_FIELDS.items()}
            for rec in result.history
        ],
    }
    if result.rel_error is not None:
        report["rel_error"] = result.rel_error
    Path(path).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    if trace_path is not None:
        write_csv(
            trace_path,
            ["iteration", *_HISTORY_FIELDS],
            (
                (j, *(value(rec) for value in _HISTORY_FIELDS.values()))
                for j, rec in enumerate(result.history)
            ),
        )


def write_experiment_table(
    csv_path: str | Path, md_path: str | Path, table: ExperimentTable
) -> None:
    """Emit one experiment table as CSV (nan for failed cells) and markdown."""

    def rows():
        for r in table.rows:
            z = r.z_mean if r.z_mean is not None else (math.nan, math.nan)
            yield (
                r.delta,
                z[0],
                z[1],
                r.rel_error_mean if r.rel_error_mean is not None else math.nan,
                r.iterations_mean if r.iterations_mean is not None else math.nan,
                r.failures,
                r.replicates,
            )

    write_csv(
        csv_path,
        [
            "delta",
            "alpha_mean",
            "gamma_mean",
            "rel_error_mean",
            "iterations_mean",
            "failures",
            "replicates",
        ],
        rows(),
    )
    Path(md_path).write_text(table.to_markdown(), encoding="utf-8")
