"""Implicit marching scheme: constants, matrix structure, and invariants.

Three kinds of check bind the solver to its discrete definition: frozen
constant values on a hand-sized grid, structural equality of the
assembled matrix against a loop-built oracle, and post-hoc identities on
marched solutions (boundary conditions, linearity, the equivalence of
the two algebraic forms of the L1 history, and the order-1 degeneration
to a classical backward-Euler solve).
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from fracmim import (
    ContourQuadrature,
    GridError,
    GridSpec,
    ModelParams,
    ParameterError,
    SolverError,
    extract_observation,
    invert_at,
    solve_forward,
)
from fracmim.solver import assemble_block_system, scheme_constants
from conftest import BENCH_PARAMS, admissible_draw
from oracles import backward_euler_classical, dense_block_matrix, l1_bracket, psi_weight

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
    M = assemble_block_system(c, 3).matrix
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
        system = assemble_block_system(c, m)
        oracle = dense_block_matrix(c.A, c.B, c.D, c.E, c.F, c.r1, m)
        assert np.array_equal(system.matrix, oracle)
        q = m - 1
        forcing = np.zeros(2 * q)
        forcing[0], forcing[q] = c.A, c.E
        assert np.array_equal(system.boundary_forcing, forcing)


def test_matrix_zero_coupling_is_block_diagonal(bench_params):
    p = dataclasses.replace(bench_params, omega=0.0)  # hypothetical, raw algebra
    c = scheme_constants(p, COARSE_GRID)
    assert c.D == 0.0 and c.E == 0.0
    M = assemble_block_system(c, 6).matrix
    q = 5
    assert np.all(M[:q, q:] == 0.0) and np.all(M[q:, :q] == 0.0)


def test_matrix_rejects_bad_size(bench_params):
    c = scheme_constants(bench_params, COARSE_GRID)
    with pytest.raises(GridError, match="m must be an integer >= 3"):
        assemble_block_system(c, 2)


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
        system = assemble_block_system(c, g.m)
        margin = system.dominance_margin()
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


def test_scheme_linearity(bench_params, tiny_grid):
    base = solve_forward(bench_params, tiny_grid)
    scaled = solve_forward(bench_params, tiny_grid, inlet=2.0)
    assert np.allclose(scaled.u1, 2.0 * base.u1, atol=1e-12, rtol=0)
    assert np.allclose(scaled.u2, 2.0 * base.u2, atol=1e-12, rtol=0)


def test_zero_inlet_gives_zero_solution(bench_params, tiny_grid):
    sol = solve_forward(bench_params, tiny_grid, inlet=0.0)
    assert np.all(sol.u1 == 0.0) and np.all(sol.u2 == 0.0)


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


def test_inlet_must_be_finite(bench_params, tiny_grid):
    with pytest.raises(ParameterError, match="inlet"):
        solve_forward(bench_params, tiny_grid, inlet=math.inf)
    with pytest.raises(ParameterError, match="inlet"):
        solve_forward(bench_params, tiny_grid, inlet=True)


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


def test_history_forms_agree_and_solution_satisfies_system(bench_params):
    # Two algebraic forms of the same right-hand side: the increment form
    # sum_j bracket * (u^{j+1} - u^j) the solver uses, and the per-level
    # form (2 - 2^e) u^k + sum_j psi_j u^j + ((k+1)^e - k^e) u^0.  Both
    # must produce the residual vector that the marched solution satisfies
    # through the assembled matrix.
    g = GridSpec(m=5, n=6, T=3.0)
    p = BENCH_PARAMS
    sol = solve_forward(p, g)
    system = assemble_block_system(scheme_constants(p, g), g.m)
    q = g.m - 1
    e1, e2 = 1.0 - p.alpha, 1.0 - p.gamma

    def direct(u, order, k):
        out = u[1:g.m, k].astype(float).copy()
        for j in range(k):
            out -= l1_bracket(order, k, j) * (u[1:g.m, j + 1] - u[1:g.m, j])
        return out

    def per_level(u, order, e, k):
        out = (2.0 - 2.0**e) * u[1:g.m, k].astype(float)
        for j in range(1, k):
            out += psi_weight(order, k, j) * u[1:g.m, j]
        out += ((k + 1.0) ** e - k**e) * u[1:g.m, 0]
        return out

    for k in range(g.n):
        rhs_direct = np.concatenate([direct(sol.u1, p.alpha, k), direct(sol.u2, p.gamma, k)])
        if k >= 1:
            rhs_level = np.concatenate(
                [per_level(sol.u1, p.alpha, e1, k), per_level(sol.u2, p.gamma, e2, k)]
            )
            assert np.max(np.abs(rhs_direct - rhs_level)) <= 1e-12
        lhs = system.matrix @ np.concatenate(
            [sol.u1[1:g.m, k + 1], sol.u2[1:g.m, k + 1]]
        )
        assert np.max(np.abs(lhs - rhs_direct - system.boundary_forcing)) <= 1e-12


def test_grid_refinement_moves_toward_reference(bench_params):
    # Doubling (m,n) from (20,100) must land closer to the independent
    # closed-form value at (x0=0.5, t=T), and the grid-to-grid move must
    # stay below the coarse grid's distance from that reference.
    ref, _ = invert_at(0.5, 100.0, bench_params, ContourQuadrature())
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
    with pytest.raises(GridError, match="interior"):
        extract_observation(sol, 1.0)


def test_observation_explicit_times_subset(bench_params, tiny_grid):
    sol = solve_forward(bench_params, tiny_grid)
    obs = extract_observation(sol, 0.25, times=[1.0, 2.0, 10.0])
    assert np.allclose(obs.times, [1.0, 2.0, 10.0])
    assert np.array_equal(obs.values, sol.u1[2, [2, 4, 20]])


def test_observation_rejects_misaligned_times(bench_params, tiny_grid):
    sol = solve_forward(bench_params, tiny_grid)
    with pytest.raises(GridError, match=re.escape("0.7")):
        extract_observation(sol, 0.5, times=[0.7])
    with pytest.raises(GridError, match="not aligned"):
        extract_observation(sol, 0.5, times=[150.0])


def test_observation_zero_solution_is_zero_series(bench_params, tiny_grid):
    sol = solve_forward(bench_params, tiny_grid, inlet=0.0)
    obs = extract_observation(sol, 0.5)
    assert np.all(obs.values == 0.0)


def test_observation_noise_metadata_recorded(bench_params, tiny_grid):
    sol = solve_forward(bench_params, tiny_grid)
    obs = extract_observation(sol, 0.5, noise_level=0.01, seed=7)
    assert obs.noise_level == 0.01 and obs.seed == 7
