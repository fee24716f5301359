"""Implicit marching scheme: constants, matrix structure, and invariants.

Three kinds of check bind the solver to its discrete definition: frozen
constant values on a hand-sized grid, structural equality of the
assembled matrix against a loop-built oracle, and post-hoc identities on
marched solutions (boundary conditions, bounds by the unit inlet, the
equivalence of the two algebraic forms of the L1 history, and the
order-1 degeneration to a classical backward-Euler solve).
"""

import dataclasses
import decimal
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma

import fracmim
from fracmim import (
    ContourQuadrature,
    GridError,
    GridSpec,
    ModelParams,
    ParameterError,
    SolutionGrid,
    SolverError,
    builtin_experiment,
    extract_observation,
    invert_with_error,
    solve_forward,
)
from fracmim.inversion import sensitivity_jacobian
from fracmim.solver import (
    _digamma,
    _HISTORY_BLOCK,
    _march_setup,
    _tangent_march,
    assemble_block_system,
    scheme_constants,
)
from conftest import admissible_draw
from oracles import (
    backward_euler_classical,
    complex_step_jacobian,
    dense_block_matrix,
    extended_tangent_march,
    getrs_march,
    l1_bracket,
    l1_power_table,
    psi_weight,
    relative_roundoff,
)

# Hand-sized grid: h = 0.1, tau = 0.5.
COARSE_GRID = GridSpec(m=10, n=200, T=100.0)


# ---------------------------------------------------------------------------
# scheme_constants


def test_constants_frozen_values(bench_params):
    c = scheme_constants(bench_params, COARSE_GRID)
    # Independently evaluated from tau^order * Gamma(2-order) with
    # Gamma(1.2) = 0.9181687423997606 and Gamma(1.75) = 0.9190625268488832.
    assert c.r1 == pytest.approx(10.546989240043014, rel=1e-14)
    assert c.r2 == pytest.approx(0.77283638422124669, rel=1e-14)
    assert c.A == pytest.approx(15.820483860064521, rel=1e-14)
    assert c.B == pytest.approx(28.184864766210869, rel=1e-14)
    assert c.D == pytest.approx(0.39551209650161303, rel=1e-14)
    assert c.E == pytest.approx(0.57962728816593502, rel=1e-14)
    assert c.F == pytest.approx(2.2365382147539947, rel=1e-14)


def test_constants_zero_degradation_algebra(bench_params):
    # With lam = mu = 0 (inadmissible for solves, fine for raw algebra)
    # the diagonal entries collapse to their zero-degradation forms.
    p = dataclasses.replace(bench_params, lam=0.0, mu=0.0)
    c = scheme_constants(p, COARSE_GRID)
    assert c.B == 1.0 + c.A + c.r1 + 2.0 * c.D
    assert c.F == 1.0 + 2.0 * c.E


def test_dominance_margins_identity():
    # B - A - r1 - 2D = 1 + ca*lam/(beta*R1) and F - 2E = 1 + r2*mu.
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = admissible_draw(rng)
        g = GridSpec(m=int(rng.integers(3, 30)), n=int(rng.integers(1, 50)), T=10.0)
        c = scheme_constants(p, g)
        m1, m2 = c.dominance_margins()
        assert m1 == pytest.approx(1.0 + c.ca * p.lam / (p.beta * p.R1), rel=1e-12)
        assert m2 == pytest.approx(1.0 + c.r2 * p.mu, rel=1e-12)
        assert m1 > 1.0 and m2 > 1.0


def test_constants_overflow_rejected(bench_params):
    p = bench_params.with_orders(0.99, 0.99)
    with pytest.raises(SolverError, match="overflow"):
        scheme_constants(p, GridSpec(m=1000, n=1, T=1e307))


# ---------------------------------------------------------------------------
# assemble_block_system


def test_matrix_m3_hand_values(bench_params):
    c = scheme_constants(bench_params, GridSpec(m=3, n=200, T=100.0))
    M, _ = assemble_block_system(c, 3)
    expected = np.array(
        [
            [c.B, -c.r1, 0.0, -c.D],
            [-c.A, c.B - c.r1, -c.D, -c.D],
            [0.0, -c.E, c.F, 0.0],
            [-c.E, -c.E, 0.0, c.F],
        ]
    )
    assert np.array_equal(M, expected)


def test_matrix_matches_loop_oracle(bench_params):
    for m in (3, 4, 7, 12):
        c = scheme_constants(bench_params, GridSpec(m=m, n=50, T=20.0))
        matrix, forcing = assemble_block_system(c, m)
        oracle = dense_block_matrix(c.A, c.B, c.D, c.E, c.F, c.r1, m)
        assert np.array_equal(matrix, oracle)
        q = m - 1
        expected = np.zeros(2 * q)
        expected[0], expected[q] = c.A, c.E
        assert np.array_equal(forcing, expected)


def test_matrix_zero_coupling_is_block_diagonal(bench_params):
    p = dataclasses.replace(bench_params, omega=0.0)  # hypothetical, raw algebra
    c = scheme_constants(p, COARSE_GRID)
    assert c.D == 0.0 and c.E == 0.0
    M, _ = assemble_block_system(c, 6)
    q = 5
    assert np.all(M[:q, q:] == 0.0) and np.all(M[q:, :q] == 0.0)


def test_matrix_rejects_bad_size(bench_params):
    c = scheme_constants(bench_params, COARSE_GRID)
    for m in (2, True, 4.0):
        with pytest.raises(GridError, match="m must be an integer >= 3"):
            assemble_block_system(c, m)
    with pytest.raises(GridError, match="m is too large for a float"):
        assemble_block_system(c, 10**400)


def test_strict_dominance_over_random_draws():
    # >= 1000 admissible draws; the margin must stay above 1 because each
    # row's slack is 1 plus a positive degradation term.
    rng = np.random.default_rng(42)
    for _ in range(1000):
        p = admissible_draw(rng)
        g = GridSpec(
            m=int(rng.integers(3, 12)),
            n=int(rng.integers(1, 40)),
            T=float(rng.uniform(0.1, 200.0)),
        )
        c = scheme_constants(p, g)
        matrix, _ = assemble_block_system(c, g.m)
        d = np.abs(np.diag(matrix))
        off = np.abs(matrix).sum(axis=1) - d
        margin = float(np.min(d - off))
        assert margin > 1.0
        assert margin == pytest.approx(min(c.dominance_margins()), rel=1e-12)


# ---------------------------------------------------------------------------
# solve_forward


def test_boundary_identities_hold_after_solve(bench_params, tiny_grid):
    sol = solve_forward(bench_params, tiny_grid)
    assert sol.boundary_residual() == 0.0
    assert np.all(sol.u1[0, 1:] == 1.0)
    assert np.all(sol.u1[:, 0] == 0.0) and np.all(sol.u2[:, 0] == 0.0)
    assert np.all(sol.u2[0, 1:] == 0.0)


def test_solution_values_physical(bench_params, default_grid):
    sol = solve_forward(bench_params, default_grid)
    assert np.all(np.isfinite(sol.u1)) and np.all(np.isfinite(sol.u2))
    assert sol.u1.min() >= -1e-10 and sol.u1.max() <= 1.0 + 1e-6
    assert sol.u2.min() >= -1e-10 and sol.u2.max() <= 1.0 + 1e-6
    # the mobile front has passed the midpoint by t = T
    assert sol.u1[default_grid.m // 2, -1] > 0.5


# Properties over the admissible parameter space on tiny grids, with the
# tolerances of the fixed-parameter checks above.
_draws = st.integers(0, 2**32 - 1).map(lambda s: admissible_draw(np.random.default_rng(s)))
_tiny_grids = st.builds(
    GridSpec, m=st.integers(3, 12), n=st.integers(1, 40), T=st.floats(0.1, 200.0)
)
# Marches across the history blocks' edges: from a step short of one
# block to 22 blocks, so that every multiple of the block size in that
# range is drawn from both sides.
_block_grids = st.builds(
    GridSpec, m=st.integers(3, 6), n=st.integers(_HISTORY_BLOCK - 1, 22 * _HISTORY_BLOCK),
    T=st.floats(0.1, 200.0),
)
_grids = _tiny_grids | _block_grids


@settings(deadline=None)
@given(_draws, _grids)
def test_solution_between_zero_and_inlet_property(p, grid):
    sol = solve_forward(p, grid)
    for u in (sol.u1, sol.u2):
        assert u.min() >= -1e-10 and u.max() <= 1.0 + 1e-6


@given(_draws, _tiny_grids)
def test_dominance_margins_property(p, grid):
    m1, m2 = scheme_constants(p, grid).dominance_margins()
    assert m1 > 1.0 and m2 > 1.0


@given(_draws, _tiny_grids)
def test_inverse_norm_within_varah_bound_property(p, grid):
    # Why the march may apply an explicit inverse: a matrix whose rows
    # all have dominance slack at least s > 0 has ||M^-1||_inf <= 1/s
    # (Varah 1975), and s > 1 here, so the inverse the march forms is
    # bounded below 1 and never amplifies a right-hand side.  The factor
    # 1 + 1e-12 allows for the roundoff of forming it.
    _, minv_t, _ = _march_setup(p, grid)
    bound = 1.0 / min(scheme_constants(p, grid).dominance_margins())
    assert bound < 1.0
    assert np.abs(minv_t).sum(axis=0).max() <= bound * (1.0 + 1e-12)


def test_order_bounds_relaxed_to_closed_one(bench_params, tiny_grid):
    solve_forward(bench_params.with_orders(1.0, 1.0), tiny_grid)  # allowed
    for alpha, gamma, message in [
        (1.1, 0.5, "alpha must lie in (0,1]"),
        (0.5, 0.0, "gamma must lie in (0,1]"),
        (True, 0.5, "alpha must lie in (0,1]"),
    ]:
        bad = dataclasses.replace(bench_params, alpha=alpha, gamma=gamma)
        with pytest.raises(ParameterError, match=re.escape(message)):
            solve_forward(bad, tiny_grid)


@pytest.mark.parametrize("inlet", [1e308, -1.7e308])
def test_overflowing_inlet_names_first_step(bench_params, default_grid, inlet, monkeypatch):
    # The unit inlet keeps every march finite, so the fault is set up: an
    # assembly whose forcing is scaled by ``inlet`` holds an infinite
    # inlet * A, and the first step's solution is not finite.  The
    # tangent march makes the tangents of step k one step later than the
    # state, and must still name the step of the state.  Every block
    # after the first starts from non-finite states.
    assemble = fracmim.solver.assemble_block_system

    def overflowing(c, m):
        matrix, forcing = assemble(c, m)
        with np.errstate(over="ignore"):
            forcing = inlet * forcing
        assert np.isinf(forcing).any()
        return matrix, forcing

    monkeypatch.setattr(fracmim.solver, "assemble_block_system", overflowing)
    for grid in (default_grid, GridSpec(8, 700, 100.0)):
        for march in (solve_forward, _tangent_march):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(
                    SolverError, match="non-finite solution values at time step 1$"
                ):
                    march(bench_params, grid)


def test_order_one_degeneration_matches_backward_euler(bench_params):
    # At alpha = gamma = 1 every L1 history weight vanishes and the march
    # must coincide with a classical backward-Euler solve assembled
    # independently from the PDE.
    p = bench_params.with_orders(1.0, 1.0)
    g = GridSpec(m=12, n=30, T=50.0)
    sol = solve_forward(p, g)
    o1, o2 = backward_euler_classical(p, g)
    assert np.max(np.abs(sol.u1 - o1)) <= 1e-12
    assert np.max(np.abs(sol.u2 - o2)) <= 1e-12


@settings(deadline=None)
@given(_draws, _grids)
def test_history_forms_agree_and_solution_satisfies_system(p, g):
    # Two algebraic forms of the same right-hand side: the increment form
    # sum_j bracket * (u^{j+1} - u^j) the solver uses, and the per-level
    # form (2 - 2^e) u^k + sum_j psi_j u^j + ((k+1)^e - k^e) u^0.  Both
    # must produce the residual vector that the marched solution satisfies
    # through the assembled matrix, M U^{k+1} = rhs^k + inlet * f, to
    # roundoff relative to ||M||_inf.  The tangent-linear march must carry
    # the same state and match the complex-step derivatives of an
    # independent complex march.
    sol = solve_forward(p, g)
    matrix, forcing = assemble_block_system(scheme_constants(p, g), g.m)
    tol = 1e-13 * np.linalg.norm(matrix, np.inf)
    e1, e2 = 1.0 - p.alpha, 1.0 - p.gamma
    # Both weights depend on k - j only: bracket[d] weighs increment
    # j = k - d and psi[d] level j = k - d (psi[0] is never used).
    brackets = [[l1_bracket(o, d, 0) for d in range(g.n + 1)] for o in (p.alpha, p.gamma)]
    psis = [[0.0] + [psi_weight(o, d + 1, 1) for d in range(1, g.n)] for o in (p.alpha, p.gamma)]
    (b1, b2), (psi1, psi2) = np.array(brackets), np.array(psis)

    def direct(u, bracket, k):
        return u[1:g.m, k] - np.diff(u[1:g.m, :k + 1], axis=1) @ bracket[k:0:-1]

    def per_level(u, psi, e, k):
        out = (2.0 - 2.0**e) * u[1:g.m, k]
        out += u[1:g.m, 1:k] @ psi[k - 1:0:-1]
        out += ((k + 1.0) ** e - k**e) * u[1:g.m, 0]
        return out

    for k in range(g.n):
        rhs_direct = np.concatenate([direct(sol.u1, b1, k), direct(sol.u2, b2, k)])
        if k >= 1:
            rhs_level = np.concatenate(
                [per_level(sol.u1, psi1, e1, k), per_level(sol.u2, psi2, e2, k)]
            )
            assert np.max(np.abs(rhs_direct - rhs_level)) <= tol
        lhs = matrix @ np.concatenate([sol.u1[1:g.m, k + 1], sol.u2[1:g.m, k + 1]])
        assert np.max(np.abs(lhs - rhs_direct - forcing)) <= tol

    node = g.m // 2
    times = g.time_nodes()[1:]
    series, G = sensitivity_jacobian((p.alpha, p.gamma), p, g, times, node * g.h)
    assert np.max(np.abs(series - sol.u1[node, 1:])) <= 1e-13
    oracle = complex_step_jacobian((p.alpha, p.gamma), p, g, times, node * g.h)
    rel = np.linalg.norm(G - oracle, axis=0) / np.linalg.norm(oracle, axis=0)
    assert np.all(rel <= 1e-10), rel


@pytest.mark.parametrize("name", ["ex51", "ex52", "ex53"])
@pytest.mark.parametrize("m, n", [(40, 200), (160, 800), (8, 1500)])
def test_tangent_march_state_matches_march_at_every_node(name, m, n):
    # The march applies a precomputed inverse of the step matrix where
    # the oracle march solves every step with getrs on its LU factors;
    # the forward solve and the state of the tangent march must agree
    # with it at every node of both zones and every time.  160x800 gives
    # q = 159, the largest inverse the test grids build; the forward
    # marches run in 7, 25 and 47 history blocks.
    spec = builtin_experiment(name)
    g = GridSpec(m=m, n=n, T=spec.grid.T)
    u1, u2 = getrs_march(spec.params, g)
    sol = solve_forward(spec.params, g)
    assert np.max(np.abs(sol.u1 - u1)) <= 1e-12
    assert np.max(np.abs(sol.u2 - u2)) <= 1e-12
    state = _tangent_march(spec.params, g)[:, 0]
    q = m - 1
    assert np.max(np.abs(state[:, :q] - u1[1:m].T)) <= 1e-12
    assert np.max(np.abs(state[:, q:] - u2[1:m].T)) <= 1e-12


# The march's roundoff is measured against an oracle march in a precision
# far beyond double: np.longdouble where it is wider than double (x87
# 80-bit, eps 1.08e-19), and a 40-digit decimal march on a tiny grid
# everywhere.  Where np.longdouble is double it could not tell roundoff
# from agreement, so those cases are skipped, never run in double.
_LONGDOUBLE_EPS = float(np.finfo(np.longdouble).eps)
_LONGDOUBLE = pytest.mark.skipif(
    _LONGDOUBLE_EPS >= np.finfo(float).eps / 1000,
    reason=f"np.longdouble has eps {_LONGDOUBLE_EPS:.3g} here; the decimal march stands in",
)
_DECIMAL_DIGITS = 40
_PRECISIONS = {"longdouble": np.longdouble, "decimal": decimal.Decimal}


@pytest.mark.parametrize("name", ["ex51", "ex52", "ex53"])
@pytest.mark.parametrize(
    "precision, m, n, bound",
    [
        # Each bound is 10x the largest error measured over ex51-ex53 and the
        # four fields (numpy 2.4, OpenBLAS): 2.5e-15, 1.35e-14 and 6.4e-16.
        pytest.param("longdouble", 10, 50, 2.5e-14, marks=_LONGDOUBLE,
                     id=f"longdouble(eps={_LONGDOUBLE_EPS:.3g})-10x50"),
        pytest.param("longdouble", 40, 200, 1.4e-13, marks=_LONGDOUBLE,
                     id=f"longdouble(eps={_LONGDOUBLE_EPS:.3g})-40x200"),
        pytest.param("decimal", 6, 20, 6.5e-15, id=f"decimal({_DECIMAL_DIGITS} digits)-6x20"),
    ],
)
def test_march_roundoff_against_extended_precision(name, precision, m, n, bound):
    # The oracle takes the march's own doubles (matrix, L1 weight tables,
    # l_a and l_g), so the difference is the double march's roundoff, not
    # its discretisation.  Each field's largest error is measured against
    # its largest value: the forward solve, and the state and both order
    # tangents of the tangent march.
    p = builtin_experiment(name).params
    g = GridSpec(m=m, n=n, T=100.0)
    with decimal.localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        oracle = extended_tangent_march(p, g, _PRECISIONS[precision])
        sol = solve_forward(p, g)
        S = _tangent_march(p, g)
        fields = {  # field: (march values, oracle quantity)
            "solve_forward": (np.concatenate([sol.u1[1:m].T, sol.u2[1:m].T], axis=1), 0),
            "state": (S[:, 0], 0), "d/d alpha": (S[:, 1], 1), "d/d gamma": (S[:, 2], 2),
        }
        errors = {key: relative_roundoff(v, oracle[:, r]) for key, (v, r) in fields.items()}
    assert max(errors.values()) <= bound, (precision, errors)


@_LONGDOUBLE
def test_longdouble_oracle_is_extended():
    # The longdouble march agrees with the 40-digit one to a few of its own
    # eps (measured at most 6.0e-19 on 8x40), so it is no double march in
    # disguise.  The bound is 10x that.
    for name in ("ex51", "ex52", "ex53"):
        p = builtin_experiment(name).params
        g = GridSpec(m=8, n=40, T=100.0)
        wide = extended_tangent_march(p, g, np.longdouble)
        with decimal.localcontext() as ctx:
            ctx.prec = _DECIMAL_DIGITS
            exact = extended_tangent_march(p, g, decimal.Decimal)
            wide = np.frompyfunc(lambda v: decimal.Decimal(str(v)), 1, 1)(wide)
            for r in range(3):
                err = float(np.abs(wide[:, r] - exact[:, r]).max() / np.abs(exact[:, r]).max())
                assert err <= 6e-18, (name, r, err)


@pytest.mark.parametrize(
    "steps", [_HISTORY_BLOCK - 1, _HISTORY_BLOCK, _HISTORY_BLOCK + 1, 2 * _HISTORY_BLOCK + 1]
)
def test_marches_match_getrs_at_block_edges(bench_params, steps):
    # A march of a step less than one block, of one block, and of one and
    # two blocks and a step, whose last block is a single step.  The
    # forward march of n steps and the tangent march of n - 1 (which
    # takes one step more) both run that many steps.
    g = GridSpec(m=5, n=steps, T=50.0)
    u1, u2 = getrs_march(bench_params, g)
    sol = solve_forward(bench_params, g)
    assert np.max(np.abs(sol.u1 - u1)) <= 1e-12
    assert np.max(np.abs(sol.u2 - u2)) <= 1e-12
    fields = np.concatenate([u1[1:g.m].T, u2[1:g.m].T], axis=1)
    assert np.max(np.abs(_tangent_march(bench_params, g, tangents=False)[:, 0] - fields)) <= 1e-12
    short = GridSpec(m=5, n=steps - 1, T=50.0 * (steps - 1) / steps)  # the same tau
    state = _tangent_march(bench_params, short)[:, 0]
    assert np.max(np.abs(state - fields[:steps])) <= 1e-12


def test_tangent_columns_match_complex_step_oracle_across_blocks():
    # The 2b + 1 steps of this tangent march run in blocks of b, b and 1:
    # the far sums of the second and third blocks, their tangent fold and
    # a one-step last block, checked at every time step.
    p = builtin_experiment("ex53").params
    g = GridSpec(m=6, n=2 * _HISTORY_BLOCK, T=100.0)
    node = g.m // 2
    times = g.time_nodes()[1:]
    G = _tangent_march(p, g)[1:, 1:, node - 1]
    oracle = complex_step_jacobian((p.alpha, p.gamma), p, g, times, node * g.h)
    step_err = np.abs(G - oracle) / np.abs(oracle).max(axis=0)
    assert np.all(step_err <= 1e-10), step_err.max(axis=0)


def test_marches_share_no_memory(bench_params, tiny_grid):
    # Every march allocates its own working array: no result is a view of
    # a buffer that the next march writes.
    results = [
        _tangent_march(bench_params, tiny_grid),
        _tangent_march(bench_params, tiny_grid),
        _tangent_march(bench_params, tiny_grid, tangents=False),
        _tangent_march(bench_params, tiny_grid, tangents=False),
    ]
    for sol in (solve_forward(bench_params, tiny_grid), solve_forward(bench_params, tiny_grid)):
        results += [sol.u1, sol.u2]
    for i, a in enumerate(results):
        for b in results[i + 1:]:
            assert not np.shares_memory(a, b)


# Runs in a fresh interpreter: an earlier big march raises glibc's
# allocation thresholds for the rest of the process and would hide a
# march that hands its pages back to the kernel after every call.
_FAULTS_PER_MARCH = """
import resource
from fracmim import builtin_experiment
from fracmim.inversion import sensitivity_jacobian

spec = builtin_experiment("ex51")
times = spec.grid.time_nodes()[1:]
def march():
    sensitivity_jacobian((0.8, 0.25), spec.params, spec.grid, times, spec.x0)
march()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    march()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap thresholds")
def test_tangent_march_reuses_its_pages():
    # One working allocation per march stays below glibc's trim threshold,
    # so a march on the 40x200 sweep grid reuses the heap pages of the last
    # one.  Separate state, increment and result arrays fault about 245
    # pages in per march.
    src = str(Path(fracmim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _FAULTS_PER_MARCH],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 20


# Prints a digest of the bytes of every builtin 40x200 march, with and
# without tangents, and of the forward solve's fields.
_MARCH_DIGESTS = """
import hashlib
from fracmim import builtin_experiment, solve_forward
from fracmim.solver import _tangent_march

for name in ("ex51", "ex52", "ex53"):
    spec = builtin_experiment(name)
    sol = solve_forward(spec.params, spec.grid)
    for data in (_tangent_march(spec.params, spec.grid), sol.u1, sol.u2):
        print(name, hashlib.sha256(data.tobytes()).hexdigest())
"""


def test_sweep_grid_marches_do_not_depend_on_the_blas_thread_count():
    # The builtin tables rerun bit for bit on any runner only if their
    # marches do: one and two OpenBLAS threads must give the same bytes.
    src = str(Path(fracmim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _MARCH_DIGESTS],
            env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.splitlines())
    assert len(digests[0]) == 9
    assert digests[0] == digests[1]


def _state_and_band_bytes(grid, tangents):
    """Bytes of a march's state rows and of its weight band."""
    r = 3 if tangents else 1
    steps = grid.n + 1 if tangents else grid.n
    b = _HISTORY_BLOCK
    last = (steps - 1) // b * b  # first step of the last block
    state = (steps + 1) * r * 2 * (grid.m - 1) * 8
    band = 2 * (2 if tangents else 1) * b * last * 8  # zone x weight row x b x last
    return state, band


def _warm_peak(call):
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_blocked_tangent_march_holds_one_array_and_its_band():
    # The march keeps the states alone, and the result is those rows with
    # the tangents moved up one row in place, so a warm blocked march
    # peaks at its state rows and its weight band (3753 and 1984 KB here)
    # and little else.  A separate result array would add another 3.7 MB.
    params = builtin_experiment("ex51").params
    grid = GridSpec(m=40, n=2000, T=100.0)
    state, band = _state_and_band_bytes(grid, tangents=True)
    assert _warm_peak(lambda: _tangent_march(params, grid)) <= state + band + 1.5 * 2**20


def test_forward_solve_holds_its_state_then_its_fields():
    # The band is freed when the march returns and the fields are made
    # from the state rows after that, so a warm 40x4000 forward solve
    # peaks at the state rows and the larger of the band (1984 KB) and
    # the two fields (2 x 1282 KB).  A march that kept its increments
    # beside the states held 2.5 MB more.
    params = builtin_experiment("ex51").params
    grid = GridSpec(m=40, n=4000, T=100.0)
    state, band = _state_and_band_bytes(grid, tangents=False)
    fields = 2 * (grid.m + 1) * (grid.n + 1) * 8
    peak = _warm_peak(lambda: solve_forward(params, grid))
    assert peak <= state + max(band, fields) + 1.5 * 2**20


@pytest.mark.parametrize("name", ["ex51", "ex52", "ex53"])
def test_tangent_columns_match_complex_step_oracle_across_nodes(name):
    # Not only the observed node: near the inlet, in the middle and at
    # the last interior node of the mobile zone.  The 201 steps of the
    # builtin 40x200 tangent march run in 7 history blocks, the 701
    # steps of the 8x700 one in 22.
    spec = builtin_experiment(name)
    p = spec.params
    for g in (spec.grid, GridSpec(8, 700, spec.grid.T)):
        S = _tangent_march(p, g)
        times = g.time_nodes()[1:]
        for x0 in (0.25, 0.5, 1.0 - g.h):
            node = int(round(x0 * g.m))
            G = S[1:, 1:, node - 1]
            oracle = complex_step_jacobian((p.alpha, p.gamma), p, g, times, x0)
            rel = np.linalg.norm(G - oracle, axis=0) / np.linalg.norm(oracle, axis=0)
            assert np.all(rel <= 1e-10), (g, x0, rel)
            # Each time step on its own, k = 1 and k = n included: the
            # march makes the tangents one step behind the state, so the
            # two ends are where an off-by-one step would show.
            step_err = np.abs(G - oracle) / np.abs(oracle).max(axis=0)
            assert step_err.shape == (g.n, 2)
            worst = np.unravel_index(np.argmax(step_err), step_err.shape)
            assert np.all(step_err <= 1e-10), (g, x0, worst, step_err[worst])


def test_digamma_matches_scipy_on_shifted_orders():
    # The tangents scale by ln(tau) - psi(2 - order), and orders lie in
    # (0, 1], so psi is needed on [1, 2).
    x = np.linspace(1.0, 2.0, 10**5)
    errors = [abs(_digamma(v) - exact) for v, exact in zip(x.tolist(), digamma(x).tolist())]
    assert max(errors) <= 4e-15


@pytest.mark.parametrize("orders", [(0.8, 0.25), (0.5, 1.0), (0.01, 0.99)])
def test_march_weights_carry_each_orders_own_power_table(bench_params, orders):
    # One broadcast power makes both zones' tables; each row must hold the
    # bits of its own order's power table (0.5 is the exponent numpy could
    # take by a square root), or every march moves by roundoff.
    p = bench_params.with_orders(*orders)
    for grid in (GridSpec(3, 1, 1.0), GridSpec(40, 200, 100.0)):
        weights = _march_setup(p, grid)[2]
        log_i = np.log(np.maximum(np.arange(grid.n + 3), 1))
        for zone, order in enumerate(orders):
            table = l1_power_table(order, grid.n + 1)
            assert np.array_equal(weights[zone, 0], np.diff(table))
            assert np.array_equal(weights[zone, 1], np.diff(-log_i * table))


def test_grid_refinement_moves_toward_reference(bench_params):
    # Doubling (m,n) from (20,100) must land closer to the independent
    # closed-form value at (x0=0.5, t=T), and the grid-to-grid move must
    # stay below the coarse grid's distance from that reference.
    ref = invert_with_error(0.5, 100.0, bench_params, ContourQuadrature())[0]
    coarse = solve_forward(bench_params, GridSpec(20, 100, 100.0)).u1[10, -1]
    fine = solve_forward(bench_params, GridSpec(40, 200, 100.0)).u1[20, -1]
    assert abs(fine - ref) < abs(coarse - ref)
    assert abs(fine - coarse) < abs(coarse - ref)


# ---------------------------------------------------------------------------
# extract_observation


def test_observation_even_grid_midpoint(bench_params, tiny_grid):
    sol = solve_forward(bench_params, tiny_grid)
    obs = extract_observation(sol, 0.5)
    assert len(obs) == tiny_grid.n
    assert obs.x0 == 0.5
    assert np.array_equal(obs.values, sol.u1[tiny_grid.m // 2, 1:])
    assert np.allclose(obs.times, tiny_grid.tau * np.arange(1, tiny_grid.n + 1))


def test_observation_odd_grid_rejects_midpoint(bench_params):
    sol = solve_forward(bench_params, GridSpec(m=5, n=4, T=1.0))
    with pytest.raises(GridError) as err:
        extract_observation(sol, 0.5)
    # names the two bracketing nodes floor(m/2)*h and ceil(m/2)*h
    assert "0.4" in str(err.value) and "0.6" in str(err.value)


def test_observation_rejects_non_interior_point(bench_params, tiny_grid):
    sol = solve_forward(bench_params, tiny_grid)
    for x0 in (1.0, math.nan, math.inf, 10**400):
        with pytest.raises(GridError, match="interior"):
            extract_observation(sol, x0)


def test_observation_explicit_times_subset(bench_params, tiny_grid):
    sol = solve_forward(bench_params, tiny_grid)
    obs = extract_observation(sol, 0.25, times=[1.0, 2.0, 10.0])
    assert np.allclose(obs.times, [1.0, 2.0, 10.0])
    assert np.array_equal(obs.values, sol.u1[2, [2, 4, 20]])


def test_observation_rejects_misaligned_times(bench_params, tiny_grid):
    sol = solve_forward(bench_params, tiny_grid)
    with pytest.raises(GridError, match=re.escape("0.7")):
        extract_observation(sol, 0.5, times=[0.7])
    for t in (150.0, 10**400):
        with pytest.raises(GridError, match="not aligned"):
            extract_observation(sol, 0.5, times=[t])


def test_observation_zero_solution_is_zero_series(tiny_grid):
    shape = (tiny_grid.m + 1, tiny_grid.n + 1)
    sol = SolutionGrid(u1=np.zeros(shape), u2=np.zeros(shape), grid=tiny_grid)
    obs = extract_observation(sol, 0.5)
    assert np.all(obs.values == 0.0)
