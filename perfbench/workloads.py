"""The benchmark workloads: inputs made from a seed, one timed pass, checks.

Every call into fracmim goes through a module attribute looked up at
call time (``experiments.run_experiment``, ``cli.main``, ...), so the
tracer's wrappers see it.  A workload object is built and warmed up
during set-up; ``run`` is the timed pass; ``check`` and ``fingerprint``
run after the clock stops.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from fracmim import cli, experiments, inversion, laplace, solver
from fracmim import io as fio
from fracmim.errors import QuadratureError
from fracmim.model import GridSpec

from spans import replace_everywhere

# Criterion-2 target mean relative errors by noise level, as in the
# acceptance suite; a measured mean must land within one decade.
CRITERION2_TARGETS = {
    "ex51": {0.05: 3.13e-2, 0.01: 5.27e-3, 0.001: 7.69e-4, 0.0001: 7.61e-5},
    "ex52": {0.05: 4.71e-2, 0.01: 8.12e-3, 0.001: 8.11e-4, 0.0001: 7.28e-5},
    "ex53": {0.05: 9.67e-2, 0.01: 1.46e-2, 0.001: 1.91e-3, 0.0001: 2.84e-4},
}
NOISE_FREE_TOL = 1e-4  # criterion 1
CROSS_ROUTE_TOL = 5e-2  # criterion 3
CROSS_ROUTE_WINDOW = (10.0, 100.0)  # criterion 3's time window
# Solver-test tolerances for "0 <= u <= inlet up to roundoff".
BOUND_LO, BOUND_HI = -1e-10, 1.0 + 1e-6
BOUNDARY_TOL = 1e-14


class OpClock:
    """Times each operation and tags the tracer with the operation id.

    Times are (start, end) readings of CLOCK_MONOTONIC, which is
    system-wide, so the runner can take out the intervals in which it
    held the process stopped to calibrate.
    """

    def __init__(self, tracer=None):
        self.records: list[dict] = []
        self.tracer = tracer

    @contextmanager
    def op(self):
        rec = {"ok": False, "span": None}
        if self.tracer is not None:
            self.tracer.op = len(self.records)
        self.records.append(rec)
        start = time.monotonic()
        try:
            yield rec
        finally:
            rec["span"] = (start, time.monotonic())
            if self.tracer is not None:
                self.tracer.op = None

    def wrap(self, fn):
        """An operation per call; a call that raises is a failed one."""

        def timed(*args, **kwargs):
            with self.op() as rec:
                result = fn(*args, **kwargs)
                rec["ok"] = True
            return result

        return timed

    def timed_pass(self, run) -> tuple[float, float]:
        """Run ``run(self)``; returns its (start, end)."""
        start = time.monotonic()
        run(self)
        return start, time.monotonic()


def _digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()[:16]


class Workload:
    """Shared by the workloads: one operation per timed record."""

    def tally(self, ops: OpClock) -> tuple[int, int]:
        """(attempted, failed) operations of the last pass."""
        return len(ops.records), sum(not r["ok"] for r in ops.records)


class Sweep(Workload):
    """``run_experiment`` noise sweeps of the builtin tables (criteria 1 and 2).

    Nearly all of the time is in 40x200 marches called by the inversion.
    Ten replicates per noisy level, because the criterion-2 band is
    calibrated on ten-replicate means.
    """

    name = "sweep"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        tables = ("ex51",) if smoke else ("ex51", "ex52", "ex53")
        levels = (0.001, 0.0)
        replicates = 1 if smoke else experiments.DEFAULT_REPLICATES
        self.specs = [
            dataclasses.replace(
                experiments.builtin_experiment(t), noise_levels=levels, replicates=replicates
            ).with_seed(seed)
            for t in tables
        ]
        self.tables = []

    def warm_up(self):
        spec = self.specs[0]
        solver.solve_forward(spec.params, spec.grid)

    def run(self, ops: OpClock):
        # Each inversion that run_replicates starts is one operation.
        inner = inversion.invert_orders
        timed = ops.wrap(inner)
        replace_everywhere(inner, timed)
        try:
            self.tables = [experiments.run_experiment(spec) for spec in self.specs]
        finally:
            replace_everywhere(timed, inner)

    def check(self) -> list[str]:
        problems = []
        for table in self.tables:
            means = []  # (noise level, mean rel error), noise-free row included
            for row in table.rows:
                where = f"{table.name} delta={row.delta:g}"
                if row.failures:
                    problems.append(f"{where}: {row.failures} failed replicate(s)")
                    continue
                err = row.rel_error_mean
                means.append((row.delta, err))
                if row.delta == 0.0:
                    if not err <= NOISE_FREE_TOL:
                        problems.append(f"{where}: noise-free rel error {err:.3e} > 1e-4")
                    continue
                target = CRITERION2_TARGETS[table.name][row.delta]
                if not target / 10.0 <= err <= target * 10.0:
                    problems.append(
                        f"{where}: mean rel error {err:.3e} outside one decade of {target:.3e}"
                    )
            # With the levels run here this sets 0.001 against the noise-free row.
            errs = [e for _, e in sorted(means, reverse=True)]
            if any(a <= b for a, b in zip(errs, errs[1:])):
                problems.append(f"{table.name}: means not decreasing with the noise: {means}")
        return problems

    def fingerprint(self) -> dict:
        return {
            t.name: [
                [r.delta, *(r.z_mean or (None, None)), r.rel_error_mean, r.iterations_mean]
                for r in t.rows
            ]
            for t in self.tables
        }


def _write_config(path: Path, params, **fields) -> None:
    """A JSON config for the CLI: explicit params plus the given fields."""
    doc = {
        "params": {
            "P": params.P, "R1": params.R1, "R2": params.R2, "beta": params.beta,
            "omega": params.omega, "lambda": params.lam, "mu": params.mu,
            "alpha": params.alpha, "gamma": params.gamma,
        },
        **fields,
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


def _grid_doc(grid: GridSpec) -> dict:
    return {"m": grid.m, "n": grid.n, "T": grid.T}


class ForwardFine(Workload):
    """In-process ``fracmim forward`` on large grids, each read back by ``read_csv``.

    The few-large-marches case: the O(q n^2) history sum, the per-step
    solve and CSV writing and reading.  The seed draws the two orders
    near ex51's; the march and file sizes do not depend on them.
    """

    name = "forward_fine"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        base = experiments.builtin_experiment("ex51").params
        self.params = base.with_orders(rng.uniform(0.7, 0.9), rng.uniform(0.15, 0.35))
        sizes = [(8, 20), (16, 40)] if smoke else [(80, 400), (160, 800), (40, 2000), (40, 4000)]
        self.workdir = workdir
        self.configs = []
        for m, n in sizes:
            grid = GridSpec(m, n, 100.0)
            path = workdir / f"forward_{m}x{n}.json"
            _write_config(path, self.params, grid=_grid_doc(grid))
            self.configs.append((grid, path))
        self.out = workdir / "forward_out"
        self.results = []

    def _one(self, config: Path):
        """One forward command plus read-back; returns (exit, solution, data)."""
        captured = []
        inner = cli.solve_forward

        def capture(*args, **kwargs):
            captured.append(inner(*args, **kwargs))
            return captured[-1]

        cli.solve_forward = capture
        try:
            code = cli.main(["forward", "--config", str(config), "--out", str(self.out), "--quiet"])
        finally:
            cli.solve_forward = inner
        data = fio.read_csv(self.out / "solution.csv")[1] if code == 0 else None
        return code, (captured[-1] if captured else None), data

    def warm_up(self):
        path = self.workdir / "forward_warm.json"
        _write_config(path, self.params, grid=_grid_doc(GridSpec(8, 20, 100.0)))
        self._one(path)

    def run(self, ops: OpClock):
        self.results = []
        for grid, config in self.configs:
            with ops.op() as rec:
                code, sol, data = self._one(config)
                rec["ok"] = code == 0
            self.results.append((grid, code, sol, data))
        shutil.rmtree(self.out, ignore_errors=True)

    def check(self) -> list[str]:
        problems = []
        for grid, code, sol, data in self.results:
            where = f"{grid.m}x{grid.n}"
            if code != 0 or sol is None or data is None:
                problems.append(f"{where}: forward exited {code}")
                continue
            res = sol.boundary_residual()
            if not res <= BOUNDARY_TOL:
                problems.append(f"{where}: boundary residual {res:.3e}")
            for field, u in (("u1", sol.u1), ("u2", sol.u2)):
                if not (BOUND_LO <= u.min() and u.max() <= BOUND_HI):
                    problems.append(f"{where}: {field} in [{u.min():.3e}, {u.max():.3e}]")
            # rows are time-major (t outer, x inner)
            shape = (grid.n + 1, grid.m + 1)
            if not (
                data.shape == (shape[0] * shape[1], 4)
                and np.array_equal(data[:, 2].reshape(shape).T, sol.u1)
                and np.array_equal(data[:, 3].reshape(shape).T, sol.u2)
            ):
                problems.append(f"{where}: CSV read-back differs from the solution")
        return problems

    def fingerprint(self) -> dict:
        out = {"orders": [self.params.alpha, self.params.gamma]}
        for grid, code, sol, data in self.results:
            if sol is not None:
                out[f"{grid.m}x{grid.n}"] = {
                    "u1_mid_T": float(sol.u1[grid.m // 2, -1]),
                    "u1_sum": float(sol.u1.sum()),
                    "u2_sum": float(sol.u2.sum()),
                    "digest": _digest(np.stack([sol.u1, sol.u2])),
                }
        return out


class ReferenceCurve(Workload):
    """Contour-inversion breakthrough curves plus one ``fracmim reference``.

    Only the Laplace route works here.  Times sit on the 40x200 march
    grid (t = 0.5 ... 100) so the x = 0.5 curve can be set against the
    march; the seed fixes the order in which the points are evaluated.
    """

    name = "reference_curve"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        names = ("ex51",) if smoke else ("ex51", "ex52", "ex53")
        self.params = {n: experiments.builtin_experiment(n).params for n in names}
        self.times = np.array([10.0, 50.0, 100.0]) if smoke else 0.5 * np.arange(1, 201)
        self.xs = (0.25, 0.5, 1.0)
        points = [(n, x, float(t)) for n in names for x in self.xs for t in self.times]
        order = np.random.default_rng([seed, 3]).permutation(len(points))
        self.points = [points[i] for i in order]
        self.quadrature = experiments.builtin_experiment("ex51").quadrature
        cli_times = (25.0, 100.0) if smoke else tuple(10.0 * k for k in range(1, 11))
        self.cli_points = [(0.5, t) for t in cli_times]
        self.cli_config = workdir / "reference.json"
        self.out = workdir / "reference_out"
        _write_config(
            self.cli_config, self.params["ex51"], reference_points=[list(p) for p in self.cli_points]
        )
        self.values = {}
        self.failed = []
        self.cli_result = None

    def warm_up(self):
        laplace.invert_with_error(0.5, 50.0, self.params["ex51"], self.quadrature)

    def run(self, ops: OpClock):
        self.values, self.failed = {}, []
        for name, x, t in self.points:
            with ops.op() as rec:
                try:
                    self.values[name, x, t] = laplace.invert_with_error(
                        x, t, self.params[name], self.quadrature
                    )
                    rec["ok"] = True
                except QuadratureError as e:
                    self.failed.append(f"{name} ({x:g}, {t:g}): {e}")
        # The command's points count as operations but are not timed one by one.
        code = cli.main(
            ["reference", "--config", str(self.cli_config), "--out", str(self.out), "--quiet"]
        )
        self.cli_result = (code, fio.read_csv(self.out / "reference.csv")[1] if code == 0 else None)

    def tally(self, ops: OpClock) -> tuple[int, int]:
        code, rows = self.cli_result
        cli_failed = len(self.cli_points) if rows is None else int(np.isnan(rows[:, 2]).sum())
        return len(self.points) + len(self.cli_points), len(self.failed) + cli_failed

    def check(self) -> list[str]:
        problems = list(self.failed)
        tol = self.quadrature.tolerance
        worst = max((v[2] for v in self.values.values()), default=0.0)
        if not worst <= tol:
            problems.append(f"estimated quadrature error {worst:.3e} > tolerance {tol:.1e}")
        # Criterion 3: the x = 0.5 curve against the default-grid march.
        p = self.params["ex51"]
        sol = solver.solve_forward(p, experiments.DEFAULT_GRID)
        lo, hi = CROSS_ROUTE_WINDOW
        times = self.times[(self.times >= lo) & (self.times <= hi)]
        march = solver.extract_observation(sol, 0.5, times).values
        ref = np.array([self.values["ex51", 0.5, float(t)][0] for t in times])
        worst = float(np.max(np.abs(march - ref) / np.abs(ref)))
        if not worst <= CROSS_ROUTE_TOL:
            problems.append(f"march vs contour at x=0.5: max rel discrepancy {worst:.3e} > 5e-2")
        code, rows = self.cli_result
        if code != 0 or rows is None:
            problems.append(f"fracmim reference exited {code}")
        else:
            direct = np.array(
                [laplace.invert_with_error(x, t, p, self.quadrature) for x, t in self.cli_points]
            )
            if not np.array_equal(rows[:, 2:5], direct):
                problems.append("fracmim reference values differ from invert_with_error")
        shutil.rmtree(self.out, ignore_errors=True)
        return problems

    def fingerprint(self) -> dict:
        out = {}
        for name in self.params:
            keys = [(name, x, float(t)) for x in self.xs for t in self.times]
            vals = np.array([self.values.get(k, (np.nan,) * 3)[:2] for k in keys])
            mid = self.values.get((name, 0.5, float(self.times[-1])), (np.nan,) * 3)
            out[name] = {"u1_mid_T": mid[0], "u2_mid_T": mid[1], "digest": _digest(vals)}
        return out


WORKLOADS = {w.name: w for w in (Sweep, ForwardFine, ReferenceCurve)}
