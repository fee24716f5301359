"""Config documents and file formats (JSON configs, CSV artifacts).

One JSON document describes an experiment; physical parameters are
always explicit while grid and algorithm knobs fall back to the package
defaults.  :func:`parse_config` reads that document and
:func:`config_document` writes it.

Every CSV artifact has a mandatory header line, then one line per row of
decimal fields with 17 significant digits (``"%.17g"``: "nan", "inf" and
"-0" spelled so), separated by "," with bare "\\n" line endings, so
emitted files round-trip through :func:`read_csv` bit for bit.  The
writers format blocks of rows, not single cells; the reader hands the
data lines to numpy's C ``loadtxt`` and parses cell by cell only the
files that it rejects.

The JSON files (observation sidecar, inversion report, table sidecar)
are indented by two spaces and end in a newline.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from .errors import ConfigError, ValidationError
from .experiments import DEFAULT_GRID, ExperimentSpec, ExperimentTable
from .inversion import STOP_REASONS, InversionConfig, InversionResult
from .laplace import ContourQuadrature
from .model import (
    ModelParams, ObservationSeries, SolutionGrid, _fits_double, _is_integer, _is_number, _is_pair,
)

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

# Rows per formatted block: large enough that the per-block Python
# overhead vanishes, small enough that a block's strings stay a few
# hundred KB.
_BLOCK_ROWS = 4096


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
    return _number(v, section, key, kind)


def _number(v, section: str, key: str, kind=float):
    """``v`` as a number of ``kind`` (float, or int kept as an int).

    JSON integers are unbounded; one too large for a float is rejected
    here rather than overflowing wherever it meets float arithmetic.
    """
    if not (_is_integer(v) if kind is int else _is_number(v)):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f'field "{key}" in "{section}" must be {noun}')
    if isinstance(v, int) and not _fits_double(v):
        raise ConfigError(f'field "{key}" in "{section}" is too large for a float')
    return v if kind is int else float(v)


def _no_leftovers(sec: dict, section: str) -> None:
    if sec:
        raise ConfigError(
            f'unknown field(s) in "{section}": {", ".join(sorted(map(str, sec)))}'
        )


def _pair(v, section: str, key: str) -> tuple[float, float]:
    if not _is_pair(v):
        raise ConfigError(f'field "{key}" in "{section}" must be a pair of numbers')
    return _number(v[0], section, key), _number(v[1], section, key)


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
        kwargs["noise_levels"] = tuple(_number(v, "config", "noise_levels") for v in levels)
    for key in ("replicates", "seed"):
        if key in doc:
            kwargs[key] = _take(doc, "config", key, int)
    out_dir = doc.pop("out_dir", None)
    spec_name = doc.pop("name", name)

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
    :func:`write_experiment_table` writes this document of the table's
    spec beside the table, so it reloads with ``fracmim experiment --config``.
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
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"config parse error in {path}: line {e.lineno} column {e.colno}: {e.msg}"
        ) from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not a UTF-8 text file: {e}") from None
    try:
        return parse_config(doc, name=path.stem)
    except ValidationError as e:
        raise type(e)(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# CSV primitives


def write_csv(path: str | Path, header: list[str], rows: Iterable[Iterable[float]]) -> None:
    """Write numeric rows as decimal CSV: header line, 17 significant digits.

    Cells are converted with ``float``.  A row whose width differs from
    the header's is named in a :class:`ValidationError` before the file
    is opened.
    """
    path = Path(path)
    width = len(header)
    rows = [[float(v) for v in row] for row in rows]
    for r, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ValidationError(f"{path}: row {r} has {len(row)} fields, expected {width}")
    line = ",".join(["%.17g"] * width) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, len(rows), _BLOCK_ROWS):
            block = rows[start:start + _BLOCK_ROWS]
            f.write(line * len(block) % tuple(itertools.chain.from_iterable(block)))


def _read_csv_percell(path: Path) -> tuple[list[str], np.ndarray]:
    """:func:`read_csv` one cell at a time, for header-only files and those ``np.loadtxt`` rejects.

    The whole file is decoded before any line is parsed, so a bad byte
    anywhere wins; then every cell is parsed by ``float`` in row order,
    so the first wrong width or non-numeric cell raises with its row.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = [ln.rstrip("\n").split(",") for ln in f if not ln.isspace()]
    except UnicodeDecodeError as e:
        raise ValidationError(f"{path}: not a UTF-8 text file: {e}") from None
    if not lines:
        raise ValidationError(f"{path}: empty file, expected a CSV header")
    header, *rows = lines
    values = []
    for r, cells in enumerate(rows, start=1):
        if len(cells) != len(header):
            raise ValidationError(
                f"{path}: row {r} has {len(cells)} fields, expected {len(header)}"
            )
        for cell, name in zip(cells, header):
            try:
                values.append(float(cell))
            except ValueError:
                raise ValidationError(
                    f"{path}: row {r}: non-numeric value {cell!r} in column {name!r}"
                ) from None
    return header, np.array(values, dtype=float).reshape(-1, len(header))


# ASCII separator controls: numpy's C parser strips them around a number
# as whitespace, ``float`` does not.
_NOT_FLOAT_SPACE = "\x1c\x1d\x1e\x1f"


def _line_blocks(f, first: str):
    """``first``, then the rest of ``f``, in lists of lines of about 64 KB.

    A block with a character of ``_NOT_FLOAT_SPACE`` raises ValueError
    instead of reaching the C parser, which would accept it.
    """
    block = [first]
    while block:
        text = "".join(block)
        # One find per character: a regex character class scans ~40x slower.
        if any(c in text for c in _NOT_FLOAT_SPACE):
            raise ValueError("a cell padded with an ASCII separator control")
        yield block
        block = f.readlines(1 << 16)


def read_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Read a numeric CSV written by this package; returns (header, array).

    Blank and whitespace-only lines are skipped and not counted.  A row
    whose width differs from the header's, or any non-numeric cell, is
    rejected with its row number ("row 1" is the first data row after
    the header); a file that is not UTF-8 is rejected as such, wherever
    the bad byte lies.  A header-only file gives shape (0, columns).

    numpy's C ``loadtxt`` parses the data lines, each cell with the
    routine ``float`` uses, so it gives the same bits.  It rejects
    ``1_0``, non-ASCII digits and whitespace-only lines between rows,
    which ``float`` and this reader accept, and lines with a character
    of ``_NOT_FLOAT_SPACE`` never reach it.  Such a file, every
    malformed one and a header-only one are read one cell at a time,
    which gives the results and errors above.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = (ln for ln in f if not ln.isspace())
            first, row = next(lines, None), next(lines, None)
            if row is not None:
                header = first.rstrip("\n").split(",")
                data = np.loadtxt(
                    itertools.chain.from_iterable(_line_blocks(f, row)),
                    delimiter=",", comments=None, ndmin=2,
                )
                if data.shape[1] == len(header):
                    return header, data
    except ValueError:  # a cell or line it rejects, or a byte that is not UTF-8
        pass
    return _read_csv_percell(path)


# ---------------------------------------------------------------------------
# Artifact writers/readers


def write_solution_csv(path: str | Path, sol: SolutionGrid) -> None:
    """Full space-time fields as rows (x, t, u1, u2), time-major order.

    Bytes equal :func:`write_csv` of the (N, 4) table, which is never
    built: each grid coordinate is formatted once, and each block of
    time rows is one ``%`` on a template that carries the x and t strings
    and ``%.17g`` for u1 and u2 only.
    """
    xs = ["%.17g" % x for x in sol.grid.space_nodes().tolist()]
    ts = ["%.17g" % t for t in sol.grid.time_nodes().tolist()]
    time_row = "".join(x + ",%s,%%.17g,%%.17g\n" for x in xs)  # t left open on every line
    per_block = max(1, _BLOCK_ROWS // len(xs))  # time rows per block
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("x,t,u1,u2\n")
        for start in range(0, len(ts), per_block):
            block = slice(start, start + per_block)
            template = "".join(time_row % ((t,) * len(xs)) for t in ts[block])
            # [time, space, field]: one time row is u1, u2 for every x
            values = np.stack([sol.u1[:, block].T, sol.u2[:, block].T], axis=-1)
            f.write(template % tuple(values.ravel().tolist()))


# Observation sidecar keys: (check of the JSON value, what the value must be).
_SIDECAR_FIELDS = {
    "x0": (_is_number, "a number"),
    "noise_level": (_is_number, "a number"),
    "seed": (lambda v: v is None or _is_integer(v), "an integer or null"),
}


def _write_json(path: str | Path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def write_observation(path: str | Path, obs: ObservationSeries) -> None:
    """Observation CSV (t, u1) plus a JSON sidecar with x0/noise/seed.

    The sidecar shares the CSV's path with a ".json" suffix and is what
    makes the series self-describing for later inversion runs.
    """
    path = Path(path)
    write_csv(path, ["t", "u1"], zip(obs.times, obs.values))
    _write_json(path.with_suffix(".json"), {key: getattr(obs, key) for key in _SIDECAR_FIELDS})


def read_observation(path: str | Path, x0: float | None = None) -> ObservationSeries:
    """Read an observation CSV (header exactly t,u1), using its sidecar when present.

    The sidecar (same path with a ".json" suffix) is authoritative for
    the observation point; ``x0`` is the fallback when no sidecar
    exists.  A sidecar that is not a JSON object of the fields
    :func:`write_observation` writes is rejected, naming the file.
    Non-finite samples are rejected with their row number, and a file
    with no data rows by name; inversion on such data would be meaningless.
    """
    path = Path(path)
    header, data = read_csv(path)
    if header != ["t", "u1"]:
        raise ValidationError(f"{path}: expected header t,u1, got {','.join(header)}")
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise ValidationError(f"{path}: non-finite value at row {int(bad[0]) + 1}")

    meta = {"x0": x0}
    sidecar_path = path.with_suffix(".json")
    if sidecar_path.exists():
        try:
            doc = json.loads(sidecar_path.read_text(encoding="utf-8"))
        except ValueError as e:  # not UTF-8, or not JSON
            raise ValidationError(f"{sidecar_path}: invalid JSON: {e}") from None
        if not isinstance(doc, dict):
            raise ValidationError(f"{sidecar_path}: sidecar must be a JSON object")
        for key, (ok, kind) in _SIDECAR_FIELDS.items():
            if key in doc and not ok(doc[key]):
                raise ValidationError(f"{sidecar_path}: {key} must be {kind}")
        meta.update({key: doc[key] for key in _SIDECAR_FIELDS if key in doc})
    if meta["x0"] is None:
        raise ValidationError(
            f"{path}: no sidecar {sidecar_path.name} found; supply x0 explicitly"
        )
    try:
        return ObservationSeries(times=data[:, 0], values=data[:, 1], **meta)
    except ValidationError as e:
        raise type(e)(f"{path}: {e}") from None


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
    "sigma_min": lambda rec: rec.sigma_min,
}


def write_inversion_report(
    path: str | Path, result: InversionResult, trace_path: str | Path
) -> None:
    """JSON report of one inversion, plus its CSV convergence trace.

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
    _write_json(path, report)
    write_csv(
        trace_path,
        ["iteration", *_HISTORY_FIELDS],
        (
            (j, *(value(rec) for value in _HISTORY_FIELDS.values()))
            for j, rec in enumerate(result.history)
        ),
    )


def write_experiment_table(csv_path: str | Path, table: ExperimentTable) -> None:
    """Emit one experiment table as CSV (nan for failed cells), markdown and config.

    The markdown and the :func:`config_document` of ``table.spec`` take
    the CSV's path with the suffixes ".md" and ".json".  The last CSV
    columns count the successful replicates by stop reason, in
    ``STOP_REASONS`` order.
    """

    def rows():
        for r in table.rows:
            if r.z_mean is None:  # every replicate failed, so no mean is set
                means = (math.nan,) * 4
            else:
                means = (*r.z_mean, r.rel_error_mean, r.iterations_mean)
            stops = (r.stops[reason] for reason in STOP_REASONS)
            yield (r.delta, *means, r.failures, r.replicates, *stops)

    header = ["delta", "alpha_mean", "gamma_mean", "rel_error_mean", "iterations_mean",
              "failures", "replicates", *STOP_REASONS]
    csv_path = Path(csv_path)
    write_csv(csv_path, header, rows())
    csv_path.with_suffix(".md").write_text(table.to_markdown(), encoding="utf-8")
    _write_json(csv_path.with_suffix(".json"), config_document(table.spec))
