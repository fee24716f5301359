"""In-memory span tracer that wraps fracmim's public functions in place.

The package source is left untouched: each traced function is replaced
by a recording wrapper in every fracmim module that holds it, because
the package imports functions by name (``from .solver import
solve_forward``) and a call is resolved through the caller's module
globals.  Spans stay in a list until the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from dataclasses import dataclass

LAYERS = ("solver", "inversion", "experiments", "laplace", "io", "cli")
GRIDS = ("40x200", "80x400", "160x800", "40x2000", "40x4000")


@dataclass
class Span:
    sid: int
    parent: int | None
    op: int | None
    layer: str
    name: str
    start: float
    end: float
    label: str = ""
    nbytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _grid_label(args, kwargs):
    grid = args[1]  # solve_forward(params, grid)
    return f"{grid.m}x{grid.n}"


def _path_label(args, kwargs):
    return str(args[0])


def _argv_label(args, kwargs):
    return args[0][0]  # main(argv): the subcommand


# (layer, function, label) for every function that gets a span.  The
# layer of a span is the module that defines the function.
SPANNED = (
    ("solver", "solve_forward", _grid_label),
    ("solver", "extract_observation", None),
    ("inversion", "run_replicates", None),
    ("inversion", "invert_orders", None),
    ("inversion", "sensitivity_jacobian", None),
    ("inversion", "lm_step", None),
    ("inversion", "add_noise", None),
    ("experiments", "run_experiment", None),
    ("laplace", "invert_with_error", None),
    ("io", "load_config", _path_label),
    ("io", "read_csv", _path_label),
    ("io", "write_solution_csv", _path_label),
    ("io", "write_observation", _path_label),
    ("io", "write_reference_csv", _path_label),
    ("cli", "main", _argv_label),
)
IO_WRITES = {"io.write_solution_csv", "io.write_observation", "io.write_reference_csv"}

# Called too often for a span each (72 times per reference point):
# counted only.
COUNTED = (("laplace", "laplace_profile"),)


class Tracer:
    """Records spans (name, start, end, parent, operation id) and call counts."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.op: int | None = None
        self._stack: list[int] = []

    def span_wrapper(self, layer, name, fn, label=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = Span(sid, parent, self.op, layer, name, start, end)
                if label is not None:
                    span.label = label(args, kwargs)
                if layer == "io" and os.path.isfile(span.label):
                    span.nbytes = os.path.getsize(span.label)
                spans[sid] = span

        return traced

    def count_wrapper(self, key, fn):
        counts = self.counts
        counts[key] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Replace each traced function wherever a fracmim module holds it."""
        for layer, name, label in SPANNED:
            fn = getattr(importlib.import_module(f"fracmim.{layer}"), name)
            replace_everywhere(fn, self.span_wrapper(layer, f"{layer}.{name}", fn, label))
        for layer, name in COUNTED:
            fn = getattr(importlib.import_module(f"fracmim.{layer}"), name)
            replace_everywhere(fn, self.count_wrapper(f"{layer}.{name}", fn))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("sid,parent,op,layer,name,label,nbytes,start,end\n")
            for s in self.spans:
                parent = "" if s.parent is None else s.parent
                op = "" if s.op is None else s.op
                f.write(
                    f"{s.sid},{parent},{op},{s.layer},{s.name},{s.label},{s.nbytes},"
                    f"{s.start:.9f},{s.end:.9f}\n"
                )


def replace_everywhere(original, replacement) -> None:
    """Rebind every fracmim module attribute that is ``original``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "fracmim" or modname.startswith("fracmim.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def history_cost(label: str) -> tuple[int, int]:
    """Computed flops and bytes read of a march's L1 history sums.

    Step k multiplies the q x k increment history of each zone by k
    weights: 2qk flops and 8(q+1)k bytes per zone.  Summed over the n
    steps that is 2q n(n-1) flops and 8(q+1) n(n-1) bytes.
    """
    m, n = map(int, label.split("x"))
    q = m - 1
    return 2 * q * n * (n - 1), 8 * (q + 1) * n * (n - 1)


def layer_metrics(tracer: Tracer, n_ops: int, wall: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass.

    Self time is a span's duration minus its direct children's.  Times
    and counts marked "per operation" are totals over the pass divided
    by the number of operations.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    self_s = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        self_s[s.layer] += s.duration - child[s.sid]

    def named(name):
        return [s for s in spans if s.name == name]

    marches = named("solver.solve_forward")
    inversions = named("inversion.invert_orders")
    lm_steps = named("inversion.lm_step")
    tables = named("experiments.run_experiment")
    points = named("laplace.invert_with_error")
    reads = named("io.read_csv")
    writes = [s for s in spans if s.name in IO_WRITES]
    mains = named("cli.main")
    table_ids = {s.sid for s in tables}
    inversion_ids = {s.sid for s in inversions}
    per_op = max(n_ops, 1)

    def under(span, ids):
        # Whether a span runs inside one of the spans in ids.
        while span.parent is not None:
            if span.parent in ids:
                return True
            span = spans[span.parent]
        return False

    out = {}
    for grid in GRIDS:
        times = [s.duration for s in marches if s.label == grid]
        out[f"solver.march_s.{grid}"] = statistics.median(times) if times else 0.0
    steps = sum(int(s.label.split("x")[1]) for s in marches)
    out["solver.step_us"] = 1e6 * _ratio(sum(s.duration for s in marches), steps)
    out["solver.marches"] = len(marches) / per_op
    out["solver.share"] = _ratio(self_s["solver"], wall)
    out["solver.self_s"] = self_s["solver"] / per_op
    costs = [history_cost(s.label) for s in marches]
    out["solver.history_flops"] = sum(c[0] for c in costs) / per_op
    out["solver.history_bytes"] = sum(c[1] for c in costs) / per_op

    n_inv = max(len(inversions), 1)
    inner_marches = sum(under(s, inversion_ids) for s in marches)
    out["inversion.iterations"] = len(lm_steps) / n_inv
    out["inversion.marches_per_iter"] = _ratio(inner_marches, len(lm_steps))
    out["inversion.jacobian_s"] = sum(s.duration for s in named("inversion.sensitivity_jacobian")) / n_inv
    out["inversion.lm_step_s"] = sum(s.duration for s in lm_steps) / n_inv
    out["inversion.self_s"] = self_s["inversion"] / per_op

    clean = [s for s in marches if s.parent in table_ids]
    out["experiments.table_s"] = _ratio(sum(s.duration for s in tables), len(tables))
    out["experiments.clean_s"] = _ratio(sum(s.duration for s in clean), len(clean))
    out["experiments.self_s"] = self_s["experiments"] / per_op

    out["laplace.point_s"] = _ratio(sum(s.duration for s in points), len(points))
    out["laplace.profile_calls"] = _ratio(tracer.counts.get("laplace.laplace_profile", 0), len(points))
    out["laplace.self_s"] = self_s["laplace"] / per_op

    written = sum(s.nbytes for s in writes)
    read = sum(s.nbytes for s in reads)
    write_s = sum(s.duration for s in writes)
    read_s = sum(s.duration for s in reads)
    out["io.write_s"] = write_s / per_op
    out["io.read_s"] = read_s / per_op
    out["io.bytes"] = (written + read) / per_op
    out["io.write_MBps"] = _ratio(written, write_s) / 1e6
    out["io.read_MBps"] = _ratio(read, read_s) / 1e6
    out["io.self_s"] = self_s["io"] / per_op

    for command in ("forward", "reference"):
        runs = [s.duration for s in mains if s.label == command]
        out[f"cli.{command}_s"] = _ratio(sum(runs), len(runs))
    out["cli.self_s"] = self_s["cli"] / per_op
    out["trace.spans"] = float(len(spans))
    return out


# Units of the per-layer metrics, in report order; trace.overhead_s
# is added by the runner from a traced and an untraced pass.
UNITS = {
    **{f"solver.march_s.{g}": "s" for g in GRIDS},
    "solver.step_us": "us",
    "solver.marches": "count",
    "solver.share": "fraction",
    "solver.self_s": "s",
    "solver.history_flops": "flop",
    "solver.history_bytes": "B",
    "inversion.iterations": "count",
    "inversion.marches_per_iter": "count",
    "inversion.jacobian_s": "s",
    "inversion.lm_step_s": "s",
    "inversion.self_s": "s",
    "experiments.table_s": "s",
    "experiments.clean_s": "s",
    "experiments.self_s": "s",
    "laplace.point_s": "s",
    "laplace.profile_calls": "count",
    "laplace.self_s": "s",
    "io.write_s": "s",
    "io.read_s": "s",
    "io.bytes": "B",
    "io.write_MBps": "MB/s",
    "io.read_MBps": "MB/s",
    "io.self_s": "s",
    "cli.forward_s": "s",
    "cli.reference_s": "s",
    "cli.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}
