"""Config parsing and file artifacts: round trips and failure diagnostics."""

import copy
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracmim import (
    ConfigError,
    ContourQuadrature,
    ExperimentSpec,
    ExperimentTable,
    GridError,
    GridSpec,
    InversionConfig,
    InversionResult,
    ModelParams,
    ObservationSeries,
    ReplicateSummary,
    SolutionGrid,
    ValidationError,
    load_config,
    parse_config,
    read_csv,
    read_observation,
    run_experiment,
    solve_forward,
    write_observation,
)
from fracmim.experiments import DEFAULT_GRID, DEFAULT_NOISE_LEVELS
from fracmim import io as fio
from fracmim.inversion import IterationRecord, _noise_key
from fracmim.io import (
    _BLOCK_ROWS,
    config_document,
    write_csv,
    write_experiment_table,
    write_inversion_report,
    write_reference_csv,
    write_solution_csv,
)
from conftest import admissible_draw
from oracles import percell_read_csv, percell_solution_rows, percell_write_csv

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
    assert spec.quadrature.tolerance == 1e-6
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
        "quadrature": {"tolerance": 1e-5},
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
    assert spec.quadrature.tolerance == 1e-5
    assert spec.reference_points == ((0.5, 10.0), (0.25, 50.0))
    assert spec.exact_orders == (0.8, 0.25)
    assert spec.out_dir == "results"


def _unit(lo=0.0, hi=1.0, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


_pairs = st.tuples(_unit(-2.0, 2.0), _unit(-2.0, 2.0))


_homotopies = st.tuples(st.integers(1, 20), _unit(1e-3, 10.0))


def _inversion(homotopy, **fields):
    return InversionConfig(j0=homotopy[0], sigma=homotopy[1], **fields)


def _spec(grid, node, **fields):
    # x0 on an interior node of the grid
    return ExperimentSpec(grid=grid, x0=(1 + node % (grid.m - 1)) / grid.m, **fields)


_specs = st.builds(
    _spec,
    params=st.integers(0, 2**32 - 1).map(lambda s: admissible_draw(np.random.default_rng(s))),
    name=st.text(min_size=1, max_size=8),
    grid=st.builds(GridSpec, m=st.integers(3, 500), n=st.integers(1, 5000),
                   T=_unit(1e-3, 1e4)),
    node=st.integers(0, 10**6),
    noise_levels=st.lists(
        _unit(), max_size=5, unique_by=(_noise_key, lambda d: f"{d:g}")
    ).map(tuple),
    replicates=st.integers(1, 50),
    inversion=st.builds(
        _inversion, _homotopies, z0=_pairs,
        max_iter=st.integers(1, 500), step_tol=_unit(1e-14, 1e-2),
        clamp_margin=_unit(1e-4, 0.19),
    ),
    quadrature=st.builds(ContourQuadrature, tolerance=_unit(1e-12, 1e-2)),
    seed=st.integers(0, 2**31),
    reference_points=st.lists(st.tuples(_unit(), _unit(1e-3, 1e4)), max_size=3).map(tuple),
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
        (lambda d: d.update(quadrature={"nodes": 24}),
         'unknown field\\(s\\) in "quadrature": nodes'),
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
        (lambda d: d.update(reference_points=[[0.5, 10], [1.5, 10]]),
         'reference point \\(1.5, 10.0\\) needs x in \\[0,1\\]'),
        (lambda d: d.update(reference_points=[[0.5, 0.0]]),
         'reference point \\(0.5, 0.0\\) needs .* a positive finite t'),
        (lambda d: d.update(reference_points=[[0.5, math.inf]]),
         'reference point \\(0.5, inf\\) needs .* a positive finite t'),
        (lambda d: d.update(reference_points=[[0.5, 1e-250]]),
         'reference point \\(0.5, 1e-250\\) needs .* a positive finite t in '
         '\\[1e-200, 1e\\+300\\]'),
        (lambda d: d.update(reference_points=[[0.5, 1e307]]),
         'reference point \\(0.5, 1e\\+307\\) needs .* a positive finite t in '
         '\\[1e-200, 1e\\+300\\]'),
        (lambda d: d["params"].update(alpha=10**400),
         'field "alpha" in "params" is too large for a float'),
        (lambda d: d.update(grid={"T": 10**400}),
         'field "T" in "grid" is too large for a float'),
        (lambda d: d.update(grid={"n": -10**400}),
         'field "n" in "grid" is too large for a float'),
        (lambda d: d.update(x0=10**400), 'field "x0" in "config" is too large for a float'),
        (lambda d: d.update(inversion={"z0": [0.5, 10**400]}),
         'field "z0" in "inversion" is too large for a float'),
        (lambda d: d.update(noise_levels=[0.01, 10**400]),
         'field "noise_levels" in "config" is too large for a float'),
        (lambda d: d.update(noise_levels=[1.8e299]),
         'noise level 1.8e\\+299 is too large to key a seed stream'),
        (lambda d: d.update(noise_levels=[0.5, 0.5000001]),
         'noise levels 0.5 and 0.5000001 share the label 0.5, which names one '
         'observation file and one table row'),
        (lambda d: d.update(noise_levels=[0.01, 0.0, 0.01]),
         'noise levels 0.01 and 0.01 share the label 0.01'),
        (lambda d: d.update(noise_levels=[-0.0, 0.0]),
         'noise levels -0 and 0 share one seed stream'),
        (lambda d: d.update(exact_orders=[math.nan, -5.0]),
         'exact_orders \\(nan, -5.0\\) must be orders in \\(0, 1\\]'),
        (lambda d: d.update(exact_orders=[0.0, 0.5]),
         'exact_orders \\(0.0, 0.5\\) must be orders in \\(0, 1\\]'),
        (lambda d: d.update(exact_orders=[0.5, 1.5]),
         'exact_orders \\(0.5, 1.5\\) must be orders in \\(0, 1\\]'),
        (lambda d: d.update(exact_orders=[math.inf, 0.5]),
         'exact_orders \\(inf, 0.5\\) must be orders in \\(0, 1\\]'),
        (lambda d: d.update(inversion={"sigma": math.inf}),
         'sigma must be positive and finite'),
        (lambda d: d.update(seed=-1), 'seed must be an integer >= 0'),
        (lambda d: d.update(inversion={"step_tol": math.inf}),
         'step_tol must be positive and finite'),
    ],
)
def test_parse_config_diagnostics(mutate, msg):
    doc = {"params": dict(PARAMS_DOC)}
    mutate(doc)
    with pytest.raises(ConfigError, match=msg):
        parse_config(doc)


def test_reference_points_take_the_ends_of_the_contour_time_range():
    # the rule invert_with_error applies: both ends are kept, beyond them refused above
    doc = {"params": PARAMS_DOC, "reference_points": [[0.0, 1e-200], [1.0, 1e300]]}
    assert parse_config(doc).reference_points == ((0.0, 1e-200), (1.0, 1e300))


# A valid document with every optional field written out; the property
# below replaces one node of it (a section, a field or a list entry).
_FULL_DOC = config_document(
    parse_config(
        {"params": PARAMS_DOC, "reference_points": [[0.5, 10.0]], "exact_orders": [0.8, 0.25]}
    )
)


def _node_paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _node_paths(child, prefix + (key,))


# What json.loads can put in a field, NaN and Infinity included.
_json_values = st.one_of(
    st.sampled_from(
        [None, True, False, "0.5", [], {}, [0.5, 10.0], {"m": 8}, -0.0, 1e308, -1e308,
         10**400, -(10**400)]
    ),
    st.floats(),
    st.integers(),
)


@settings(max_examples=500)
@given(st.sampled_from(list(_node_paths(_FULL_DOC))), _json_values)
def test_parse_config_raises_only_validation_errors(path, value):
    doc = copy.deepcopy(_FULL_DOC)
    if path:
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    else:
        doc = value
    try:
        parse_config(doc)
    except ValidationError:
        pass


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


def test_parse_config_rejects_off_grid_x0():
    with pytest.raises(GridError, match="x0=0.33 is not a grid node"):
        parse_config({"params": dict(PARAMS_DOC), "x0": 0.33})


def test_non_utf8_files_name_the_file(tmp_path):
    for name, read in (("cfg.json", load_config), ("data.csv", read_csv)):
        path = tmp_path / name
        path.write_bytes(b"t,u1\n1,\xff\n")
        with pytest.raises(ValidationError, match=re.escape(f"{path}: not a UTF-8 text file")):
            read(path)


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


@pytest.mark.parametrize(
    "rows, msg",
    [
        ([(1.0, 2.0), (3.0,), (4.0, 5.0, 6.0)], "row 2 has 1 fields, expected 2"),
        ([(1.0, 2.0, 3.0)], "row 1 has 3 fields, expected 2"),
        (np.zeros((3, 3)), "row 1 has 3 fields, expected 2"),
    ],
    ids=["short-row", "long-row", "wide-array"],
)
def test_write_csv_rejects_row_of_other_width(tmp_path, rows, msg):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValidationError, match=re.escape(f"{path}: {msg}")):
        write_csv(path, ["a", "b"], rows)
    assert not path.exists()


@pytest.mark.parametrize("cell", [None, "1.5", [1.0]])
def test_write_csv_cells_convert_as_float_does(tmp_path, cell):
    try:
        expected = f"a,b\n1,{float(cell):.17g}\n"
    except TypeError:
        with pytest.raises(TypeError):
            write_csv(tmp_path / "data.csv", ["a", "b"], [(1, cell)])
    else:
        write_csv(tmp_path / "data.csv", ["a", "b"], [(1, cell)])
        assert (tmp_path / "data.csv").read_text(encoding="utf-8") == expected


SPECIAL_DOUBLES = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
    np.nextafter(0.0, 1.0) * 12345, 1.7976931348623157e308, -1.7976931348623157e308,
    0.1, 1.0 / 3.0, 1e16, 123456789012345678.0,
]


def _random_doubles(rng, shape):
    mantissa = rng.standard_normal(shape)
    return mantissa * 10.0 ** rng.uniform(-300.0, 300.0, size=shape)


def test_write_csv_matches_percell_writer(tmp_path):
    rng = np.random.default_rng(10)
    rows = _random_doubles(rng, (2 * _BLOCK_ROWS + 7, 3))
    rows[: len(SPECIAL_DOUBLES), 0] = SPECIAL_DOUBLES
    rows[-len(SPECIAL_DOUBLES):, 2] = SPECIAL_DOUBLES
    rows[5:40, 1] = rng.uniform(-1.0, 1.0, 35) * 2.2250738585072014e-308  # subnormals
    ints = [(j, 2**60 + 1, -(2**53) - 1, True) for j in range(5)]
    big_ints = rng.integers(-(2**62), 2**62, size=(20, 3))
    cases = [  # (header, a maker of fresh rows)
        (["a", "b", "c"], lambda: rows),
        (["a", "b", "c"], lambda: [tuple(row) for row in rows[:50]]),
        (["a", "b", "c"], lambda: big_ints),
        (["i", "big", "neg", "flag"], lambda: ints),
        (["i", "x"], lambda: ((j, x) for j, x in enumerate(SPECIAL_DOUBLES))),
        (["a", "b"], lambda: (iter(row) for row in rows[:20, :2])),
        (["a", "b"], lambda: []),
        (["only"], lambda: np.arange(7.0)[:, None]),
    ]
    for k, (header, make) in enumerate(cases):
        write_csv(tmp_path / f"new{k}.csv", header, make())
        percell_write_csv(tmp_path / f"old{k}.csv", header, make())
        new, old = ((tmp_path / f"{side}{k}.csv").read_bytes() for side in ("new", "old"))
        assert new == old, f"case {k}"


def _read_outcome(read, path):
    try:
        header, data = read(path)
    except ValidationError as e:
        return "error", str(e)
    return header, data.shape, data.tobytes()


def _block_file(size, edits):
    """Header a,b,c and ``size`` numeric rows, with row r's line replaced by edits[r]."""
    lines = ["a,b,c"] + [f"{r},{r}.5,-{r}e-3" for r in range(1, size + 1)]
    for r, line in edits.items():
        lines[r] = line
    return "\n".join(lines) + "\n"


B = _BLOCK_ROWS
READ_CASES = {
    "padded": "a, b\n 1 , 2\t\n\u2003-0 ,  +inf\n",
    "blank-lines": "\n  \na,b\n\n1,2\n   \n\t\n3,4\n\n \n",
    "crlf": "a,b\r\n1,2\r\n3,4\r\n",
    "cr": "a,b\r1,2\r3,4",
    "underscores": "a,b\n1_0,2_000.5\n",
    "words": "a,b,c\nnan,-Infinity,infinity\n\u0661\u0662,1e999,-1e-999\n",
    "no-final-newline": "a,b\n1,2\n3,4",
    "header-only": "a,b,c\n",
    "header-only-no-newline": "a,b",
    "header-only-padded": "  \n a,b \n\n",
    "empty": "",
    "whitespace-only": " \n\t\n\r\n",
    "trailing-comma": "a,b\n1,2,\n",
    "empty-cell": "a,b\n1,\n",
    "hex": "a,b\n1,0x10\n",
    "compensating-rows": "a,b\n1,2,3\n4\n",
    "bad-cell-then-short-row": "a,b\n1,2\n3,x\n4\n",
    "short-row-then-bad-cell": "a,b\n1,2\n3\n4,x\n",
    "bad-cells-in-one-row": "a,b,c\n1,y,z\n",
    "many-rows": _block_file(2 * B + 3, {}),
    "bad-cell-after-first-block": _block_file(2 * B + 3, {B + 7: "1,oops,3"}),
    "short-row-after-first-block": _block_file(2 * B + 3, {B + 9: "1,2"}),
    "bad-cell-first-of-second-block": _block_file(2 * B, {B + 1: "1,2,?"}),
    "short-row-last-of-first-block": _block_file(2 * B, {B: "1"}),
    "bad-cell-before-short-row-in-block": _block_file(2 * B, {B + 2: "1,2,x", B + 5: "1"}),
    "short-row-before-bad-cell-in-block": _block_file(2 * B, {B + 2: "1", B + 5: "1,2,x"}),
    "blank-lines-before-bad-cell": _block_file(B + 20, {r: "  " for r in range(3, 40)} | {B + 10: "x,1,2"}),
    "comment": "a,b\n1,2 # c\n",
    "quoted-cell": 'a,b\n"1",2\n',
    "whitespace-line-between-rows": "a,b\n1,2\n \t \n3,4\n",
    "signed-nan-inf": "a,b\n-nan,+inf\n+nan,-inf\n",
    "narrow-rows-under-wide-header": "a,b,c\n1,2\n3,4\n",
    "header-then-blank-lines": "a,b\n\n\n",
    "separator-control-padding": "a,b\n1,2\n\x1c3,4\x1f\n",  # whitespace to numpy, not to float
}


@pytest.mark.parametrize("name", READ_CASES)
def test_read_csv_matches_percell_reader(tmp_path, name):
    path = tmp_path / "data.csv"
    path.write_bytes(READ_CASES[name].encode("utf-8"))
    assert _read_outcome(read_csv, path) == _read_outcome(percell_read_csv, path)


def test_read_csv_header_only_shape(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b,c\n", encoding="utf-8")
    header, data = read_csv(path)
    assert header == ["a", "b", "c"] and data.shape == (0, 3)


_PADDING = st.text(st.sampled_from(" \t\x0b\x0c\x1c\xa0\u2003"), max_size=2)
_UNICODE_DIGITS = [{ord(d): chr(zero + int(d)) for d in "0123456789"} for zero in (0x660, 0xFF10)]
_CELL_SPELLINGS = [
    st.floats().map(lambda x: "%.17g" % x),
    st.floats().map(repr),
    st.tuples(_PADDING, st.floats(), _PADDING).map(lambda c: f"{c[0]}{c[1]:.17g}{c[2]}"),
    st.integers(-(10**9), 10**9).map(lambda i: f"{i:_}"),
    st.tuples(st.integers(0, 10**6), st.sampled_from(_UNICODE_DIGITS)).map(
        lambda c: str(c[0]).translate(c[1])
    ),
    st.sampled_from(
        ["nan", "-nan", "+NaN", "inf", "+inf", "-Infinity", "iNfInItY", "1e999", "-1e-999"]
    ),
    st.sampled_from(
        ["", "x", "0x10", "1e", "--1", "1__0", "_1", '"1"', "1 # c", "1 2", "1\x00", "\x0c"]
    ),
]


@st.composite
def _csv_texts(draw):
    """A CSV text of cells in a few of the spellings, perhaps with blank lines and wrong widths."""
    cells = st.one_of(draw(st.sets(st.sampled_from(_CELL_SPELLINGS), min_size=1)))
    width = draw(st.integers(1, 4))
    row_width = st.integers(1, width + 1) if draw(st.booleans()) else st.just(width)
    row = row_width.flatmap(lambda n: st.lists(cells, min_size=n, max_size=n))
    rows = draw(st.lists(row, max_size=8))
    lines = [",".join(f"c{j}" for j in range(width))] + [",".join(row) for row in rows]
    if draw(st.booleans()):
        blank = st.sampled_from(["", " ", "\t", " \x0c "])
        for _ in range(draw(st.integers(1, 4))):
            lines.insert(draw(st.integers(0, len(lines))), draw(blank))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines)
    return text + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None)
@given(_csv_texts())
def test_read_csv_matches_percell_reader_on_drawn_tables(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "drawn.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _read_outcome(read_csv, path) == _read_outcome(percell_read_csv, path)


def test_read_csv_reads_package_files_without_fallback(tmp_path, bench_params, monkeypatch):
    # The package's own files must not need the per-cell reader, nor warn.
    def no_fallback(path):
        raise AssertionError(f"{path} was read one cell at a time")

    monkeypatch.setattr(fio, "_read_csv_percell", no_fallback)
    sol = solve_forward(bench_params, GridSpec(40, 2 * _BLOCK_ROWS // 41 + 3, 100.0))
    rng = np.random.default_rng(13)
    values = _random_doubles(rng, 300)
    finite = [v for v in SPECIAL_DOUBLES if math.isfinite(v)]
    values[:len(finite)] = finite
    obs = ObservationSeries(
        x0=0.5, times=np.cumsum(rng.uniform(1e-3, 1.0, 300)), values=values,
        noise_level=0.01, seed=3,
    )
    write_solution_csv(tmp_path / "solution.csv", sol)
    write_observation(tmp_path / "obs.csv", obs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        header, data = read_csv(tmp_path / "solution.csv")
        back = read_observation(tmp_path / "obs.csv")
    assert header == ["x", "t", "u1", "u2"] and len(data) > _BLOCK_ROWS
    assert data.tobytes() == np.array(list(percell_solution_rows(sol))).tobytes()
    assert back.times.tobytes() == obs.times.tobytes()
    assert back.values.tobytes() == obs.values.tobytes()


@pytest.mark.parametrize("bad_row", [3, 2 * _BLOCK_ROWS])
def test_read_csv_undecodable_byte_wins_over_earlier_bad_row(tmp_path, bad_row):
    # The bad byte lies far past the first decoded chunk, and a malformed
    # row comes before it.
    text = _block_file(3 * _BLOCK_ROWS, {bad_row: "1,2"})
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8")[:-40] + b"\xff" + text.encode("utf-8")[-40:])
    outcome = _read_outcome(read_csv, path)
    assert outcome == _read_outcome(percell_read_csv, path)
    assert "not a UTF-8 text file" in outcome[1]


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


def test_solution_csv_matches_percell_writer(tmp_path, bench_params):
    grid = GridSpec(40, 2 * _BLOCK_ROWS // 41 + 3, 100.0)  # rows span three blocks
    sol = solve_forward(bench_params, grid)
    path = tmp_path / "solution.csv"
    write_solution_csv(path, sol)
    percell_write_csv(tmp_path / "percell.csv", ["x", "t", "u1", "u2"], percell_solution_rows(sol))
    assert path.read_bytes() == (tmp_path / "percell.csv").read_bytes()


def _hand_built_solution(grid, rng):
    # Fields of any values: the writer does not care what made them.
    shape = (grid.m + 1, grid.n + 1)
    return SolutionGrid(_random_doubles(rng, shape), _random_doubles(rng, shape), grid)


def _signed_zero_solution(bench_params):
    sol = solve_forward(bench_params, GridSpec(6, 5, 3.0))
    u1, u2 = sol.u1.copy(), sol.u2.copy()
    u1[:, 0] = -0.0
    u2[::2, 1:] *= -0.0  # -0.0 where the field was 0 or positive
    return SolutionGrid(u1, u2, sol.grid)


@pytest.mark.parametrize(
    "make",
    [
        # m + 1 = 7 does not divide _BLOCK_ROWS; 1500 steps are 24 history blocks
        lambda p, rng: solve_forward(p, GridSpec(6, 1500, 100.0)),
        # one time row is more than a block of rows
        lambda p, rng: _hand_built_solution(GridSpec(_BLOCK_ROWS + 10, 2, 1.0), rng),
        lambda p, rng: solve_forward(p, GridSpec(8, 1, 0.5)),  # n = 1
        lambda p, rng: _signed_zero_solution(p),
    ],
    ids=["ragged-blocks", "long-time-rows", "one-step", "signed-zeros"],
)
def test_solution_csv_bytes_and_read_back(tmp_path, bench_params, make):
    sol = make(bench_params, np.random.default_rng(12))
    path = tmp_path / "solution.csv"
    write_solution_csv(path, sol)
    rows = list(percell_solution_rows(sol))
    percell_write_csv(tmp_path / "percell.csv", ["x", "t", "u1", "u2"], rows)
    assert path.read_bytes() == (tmp_path / "percell.csv").read_bytes()
    data = read_csv(path)[1]
    assert data.view(np.int64).tolist() == np.array(rows).view(np.int64).tolist()


def test_artifact_csvs_match_percell_writer(tmp_path, monkeypatch, bench_params):
    rng = np.random.default_rng(11)
    obs = ObservationSeries(
        x0=0.5, times=np.cumsum(rng.uniform(1e-3, 1.0, 300)),
        values=_random_doubles(rng, 300), noise_level=0.01, seed=3,
    )
    reference = [(0.5, 10.0, 0.03, 0.02, 1e-8), (1.0, 0.5, math.nan, math.nan, math.nan)]
    table = ExperimentTable(
        spec=ExperimentSpec(params=bench_params, name="demo"),
        rows=[
            ReplicateSummary(delta=0.05, replicates=10, failures=1, z_mean=(0.81, 1 / 3),
                             rel_error_mean=0.03, iterations_mean=14.5,
                             stops={"step_tol": 6, "residual_rise": 2, "max_iter": 1}),
            ReplicateSummary(delta=0.01, replicates=10, failures=10, z_mean=None,
                             rel_error_mean=None, iterations_mean=None),
        ],
    )
    writers = [
        (write_observation, obs),
        (write_reference_csv, reference),
        (lambda path, res: write_inversion_report(tmp_path / "r.json", res, path), _result(1e-6)),
        (write_experiment_table, table),
    ]
    for k, (write, arg) in enumerate(writers):
        write(tmp_path / "new.csv", arg)
        with monkeypatch.context() as m:  # the same writer on the per-cell CSV layer
            m.setattr(fio, "write_csv", percell_write_csv)
            write(tmp_path / "old.csv", arg)
        new, old = ((tmp_path / f"{side}.csv").read_bytes() for side in ("new", "old"))
        assert new == old, f"writer {k}"


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


@pytest.mark.parametrize(
    "sidecar, msg",
    [
        ("{not json", "invalid JSON"),
        ("[0.5]", "sidecar must be a JSON object"),
        ('{"x0": "half"}', "x0 must be a number"),
        ('{"x0": 0.5, "noise_level": "low"}', "noise_level must be a number"),
        ('{"x0": 0.5, "seed": 1.5}', "seed must be an integer or null"),
    ],
)
def test_observation_rejects_broken_sidecar(tmp_path, sidecar, msg):
    path = tmp_path / "obs.csv"
    write_csv(path, ["t", "u1"], [(1.0, 0.1)])
    (tmp_path / "obs.json").write_text(sidecar, encoding="utf-8")
    with pytest.raises(ValidationError, match=re.escape(f"obs.json: {msg}")):
        read_observation(path)


def test_observation_rejects_bad_header(tmp_path):
    path = tmp_path / "obs.csv"
    write_csv(path, ["time", "value"], [(1.0, 0.1)])
    with pytest.raises(ValidationError, match="expected header t,u1"):
        read_observation(path, x0=0.5)


def test_observation_rejects_extra_columns(tmp_path):
    path = tmp_path / "obs.csv"
    write_csv(path, ["t", "u1", "junk"], [(1.0, 0.1, 7.0)])
    with pytest.raises(ValidationError, match="expected header t,u1, got t,u1,junk$"):
        read_observation(path, x0=0.5)


def test_observation_rejects_header_only_file(tmp_path):
    path = tmp_path / "obs.csv"
    write_csv(path, ["t", "u1"], [])
    with pytest.raises(ValidationError, match=r"obs\.csv: an observation series needs at least one sample"):
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
        IterationRecord(z=(0.5, 0.5), kappa=0.989, residual_norm=0.1, step_norm=0.2,
                        sigma_min=0.5),
        IterationRecord(z=(0.7, 0.3), kappa=0.973, residual_norm=0.05, step_norm=0.1,
                        sigma_min=0.25),
    ]
    return InversionResult(
        z_inv=(0.8, 0.25), rel_error=rel_error, history=history, stop_reason="step_tol",
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
    assert header == [
        "iteration", "alpha", "gamma", "kappa", "residual_norm", "step_norm", "sigma_min"
    ]
    assert data.shape == (2, 7)
    assert list(data[:, 6]) == [0.5, 0.25]
    assert [h["sigma_min"] for h in doc["history"]] == [0.5, 0.25]
    assert list(data[:, 0]) == [0.0, 1.0]


def test_inversion_report_omits_unknown_error(tmp_path):
    report_path = tmp_path / "report.json"
    write_inversion_report(report_path, _result(None), tmp_path / "trace.csv")
    doc = json.loads(report_path.read_text(encoding="utf-8"))
    assert "rel_error" not in doc


def test_experiment_table_files(tmp_path, bench_params):
    spec = ExperimentSpec(params=bench_params, name="demo", seed=7)
    table = ExperimentTable(
        spec=spec,
        rows=[
            ReplicateSummary(delta=0.05, replicates=10, failures=1,
                             z_mean=(0.81, 0.24), rel_error_mean=0.03,
                             iterations_mean=14.5,
                             stops={"step_tol": 6, "residual_rise": 2, "max_iter": 1}),
            ReplicateSummary(delta=0.01, replicates=10, failures=10,
                             z_mean=None, rel_error_mean=None, iterations_mean=None),
        ],
    )
    csv_path = tmp_path / "table.csv"
    write_experiment_table(csv_path, table)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv", "table.json", "table.md"]
    header, data = read_csv(csv_path)
    assert header == ["delta", "alpha_mean", "gamma_mean", "rel_error_mean",
                      "iterations_mean", "failures", "replicates",
                      "step_tol", "residual_rise", "max_iter"]
    assert data[0, 1] == 0.81 and data[0, 5] == 1.0
    assert np.all(np.isnan(data[1, 1:5]))
    assert data[:, 7:].tolist() == [[6.0, 2.0, 1.0], [0.0, 0.0, 0.0]]
    md = (tmp_path / "table.md").read_text(encoding="utf-8")
    assert md.startswith(
        "Recovered orders for demo: true (alpha, gamma) = (0.80000000, 0.25000000)\n"
    )
    assert "| noise level | recovered orders (mean) |" in md
    assert "| stops (step_tol / residual_rise / max_iter) |" in md
    assert "| 14.5 | 6 / 2 / 1 |" in md
    assert "[1/10 failed]" in md
    assert "FAILED (10/10)" in md
    sidecar = (tmp_path / "table.json").read_text(encoding="utf-8")
    assert sidecar == json.dumps(config_document(spec), indent=2) + "\n"
    assert load_config(tmp_path / "table.json") == spec


def test_a_written_table_reruns_from_its_sidecar(tmp_path, bench_params, tiny_grid):
    spec = ExperimentSpec(params=bench_params, name="tiny", grid=tiny_grid,
                          noise_levels=(0.01, 0.0), replicates=2,
                          inversion=InversionConfig(z0=(0.5, 0.5)))
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    write_experiment_table(first / "table_tiny.csv", run_experiment(spec))
    files = ["table_tiny.csv", "table_tiny.json", "table_tiny.md"]
    assert sorted(p.name for p in first.iterdir()) == files
    rerun = load_config(first / "table_tiny.json")
    assert rerun == spec
    write_experiment_table(second / "table_tiny.csv", run_experiment(rerun))
    for name in files:
        assert (second / name).read_bytes() == (first / name).read_bytes(), name
