"""Acceptance gate: one test per shipping criterion.

Each test prints a single "criterion N: PASS" detail line on success;
under ``pytest -v`` the test names double as the per-criterion pass/fail
report.  Tolerances are stated inline next to each assertion.
"""

import dataclasses
import math

import numpy as np
import pytest

from fracmim import (
    GridSpec,
    builtin_experiment,
    extract_observation,
    invert_with_error,
    run_experiment,
    solve_forward,
)
from fracmim.experiments import DEFAULT_GRID
from fracmim.laplace import _frequencies, _invert, laplace_profile
from fracmim.solver import assemble_block_system, scheme_constants
from conftest import admissible_draw, real_s_profile
from oracles import (
    backward_euler_classical, immobile_denom, l1_bracket, mittag_leffler, psi_weight,
    roots_and_fit,
)

NOISY_LEVELS = (0.05, 0.01, 0.001, 0.0001)

# Target mean relative recovery errors by noise level (5%, 1%, 0.1%,
# 0.01%) for the three builtin experiments; measured means must land
# within one decade of these and decrease monotonically.
BENCHMARK_ERROR_LEVELS = {
    "ex51": (3.13e-2, 5.27e-3, 7.69e-4, 7.61e-5),
    "ex52": (4.71e-2, 8.12e-3, 8.11e-4, 7.28e-5),
    "ex53": (9.67e-2, 1.46e-2, 1.91e-3, 2.84e-4),
}


def test_criterion_01_noise_free_recovery():
    details = []
    for name in ("ex51", "ex52", "ex53"):
        spec = dataclasses.replace(builtin_experiment(name), noise_levels=(0.0,))
        table = run_experiment(spec)
        row = table.rows[0]
        assert row.failures == 0
        assert row.rel_error_mean <= 1e-4, f"{name}: rel error {row.rel_error_mean:.3e}"
        details.append(f"{name} {row.rel_error_mean:.2e}")
    print(f"criterion 1: PASS - noise-free recovery rel errors {', '.join(details)} (<= 1e-4)")


def test_criterion_02_noisy_recovery_trend():
    details = []
    for name, targets in BENCHMARK_ERROR_LEVELS.items():
        spec = dataclasses.replace(builtin_experiment(name), noise_levels=NOISY_LEVELS)
        table = run_experiment(spec)
        means = []
        for row, target in zip(table.rows, targets):
            assert row.failures == 0, f"{name} delta={row.delta}: {row.failures} failed"
            got = row.rel_error_mean
            assert target / 10.0 <= got <= target * 10.0, (
                f"{name} delta={row.delta}: mean rel error {got:.3e} "
                f"outside one decade of {target:.3e}"
            )
            means.append(got)
        assert all(a > b for a, b in zip(means, means[1:])), (
            f"{name}: means not monotone decreasing: {means}"
        )
        details.append(f"{name} " + "/".join(f"{v:.2e}" for v in means))
    print(f"criterion 2: PASS - noisy means in-decade and monotone: {'; '.join(details)}")


def test_criterion_03_cross_route_agreement():
    params = builtin_experiment("ex51").params
    x0, times = 0.5, np.array([10.0, 50.0, 100.0])
    refs = np.array([invert_with_error(x0, float(t), params)[0] for t in times])

    ladder = {}
    for m, n in [(20, 100), (40, 200), (80, 400), (160, 800)]:
        sol = solve_forward(params, GridSpec(m, n, 100.0))
        obs = extract_observation(sol, x0, times)
        ladder[m] = np.abs(obs.values - refs) / np.abs(refs)

    assert np.max(ladder[40]) <= 0.05, f"default grid discrepancy {np.max(ladder[40]):.3e}"
    # refinement must shrink the discrepancy on the doublings that bracket
    # the default grid; the signed spatial error changes sign near m=40,
    # so the (40,200)->(80,400) doubling crosses zero and re-grows
    assert np.all(ladder[20] > ladder[40]), f"{ladder[20]} !> {ladder[40]}"
    assert np.all(ladder[80] > ladder[160]), f"{ladder[80]} !> {ladder[160]}"
    print(
        f"criterion 3: PASS - default-grid max rel discrepancy {np.max(ladder[40]):.2e} "
        f"(<= 5e-2); doubling shrinks it on (20,100)->(40,200) and (80,400)->(160,800); "
        f"the (40,200)->(80,400) step sits at the spatial error's sign change and re-grows "
        f"(max {np.max(ladder[80]):.2e})"
    )


def test_cross_route_agreement_over_full_curve():
    # Every grid time t >= 5 of the x0 = 0.5 curve on the default grid, for
    # each builtin problem.  Earlier times carry the L1 scheme's start-up
    # error (2.6e-1 at t = 0.5 on ex51), which shrinks only with n.
    worst = {}
    for name in ("ex51", "ex52", "ex53"):
        params = builtin_experiment(name).params
        obs = extract_observation(solve_forward(params, DEFAULT_GRID), 0.5)
        late = obs.times >= 5.0
        refs = np.array([invert_with_error(0.5, float(t), params)[0] for t in obs.times[late]])
        worst[name] = float(np.max(np.abs(obs.values[late] - refs) / np.abs(refs)))
    assert max(worst.values()) <= 0.05, worst
    print(
        "cross-route curve: PASS - max rel discrepancy over grid times t >= 5 at x0 = 0.5: "
        + ", ".join(f"{name} {v:.2e}" for name, v in worst.items())
        + " (<= 5e-2)"
    )


def test_criterion_04_classical_order_degeneration():
    params = builtin_experiment("ex51").params.with_orders(1.0, 1.0)
    grid = GridSpec(20, 50, 50.0)
    sol = solve_forward(params, grid)
    u1_ref, u2_ref = backward_euler_classical(params, grid)
    diff = max(np.max(np.abs(sol.u1 - u1_ref)), np.max(np.abs(sol.u2 - u2_ref)))
    assert diff <= 1e-12
    print(f"criterion 4: PASS - alpha=gamma=1 matches classical implicit march to {diff:.1e}")


def test_criterion_05_transform_property_suite():
    rng = np.random.default_rng(42)
    xs = np.linspace(0.0, 1.0, 5)
    real_draws = 0
    bound_max = 0.0
    for _ in range(1000):
        p = admissible_draw(rng)
        kind = rng.integers(3)
        if kind == 0:
            s = complex(10.0 ** rng.uniform(-2, 4))
        elif kind == 1:
            s = complex(1.0, rng.uniform(-1e4, 1e4))
        else:
            s = complex(rng.uniform(0.1, 10.0), rng.uniform(-1e3, 1e3))

        z = _frequencies(s)
        b, eta1, eta2, c1, c2 = (v[0] for v in roots_and_fit(z, p, immobile_denom(z, p)))
        a = 1.0 / p.P
        assert eta1.real > 0.0 > eta2.real
        scale = abs(eta1) + abs(eta2)
        assert abs(eta1 + eta2 - 1.0 / a) <= 1e-10 * scale
        assert abs(eta1 * eta2 - b / a) <= 1e-10 * abs(b / a)
        u1_inlet, _ = laplace_profile(0.0, s, p)
        assert u1_inlet == 1.0 / s
        g = np.exp(complex(eta2 - eta1))
        t1 = c1 * eta1
        t2 = c2 * eta2 * g
        assert abs(t1 + t2) <= 1e-10 * max(abs(t1), abs(t2))

        for x in xs:
            u1, u2 = laplace_profile(float(x), s, p)
            bound_max = max(bound_max, abs(s * u1))
            if s.imag == 0.0:
                assert u1.imag == 0.0 and u2.imag == 0.0
                assert -1e-15 <= u1.real <= (1.0 / s.real) * (1.0 + 1e-12)
                assert u2.real >= -1e-15
        real_draws += s.imag == 0.0
    assert bound_max <= 1.0 + 1e-9  # uniform |s * u1| bound, supremum at x=0
    print(
        f"criterion 5: PASS - 1000 draws ({real_draws} on the real ray): root signs, "
        f"Vieta and boundary fits to 1e-10, inlet exact, nonnegativity, "
        f"max |s*u1| = {bound_max:.15f}"
    )


def test_criterion_06_order_monotonicity():
    params = builtin_experiment("ex51").params
    orders = np.linspace(0.05, 0.95, 10)
    checked = violations = 0
    for s in (10.0, 100.0, 1000.0):
        for fixed in orders:
            in_alpha = [real_s_profile(0.5, s, (float(a), float(fixed)), params) for a in orders]
            in_gamma = [real_s_profile(0.5, s, (float(fixed), float(c)), params) for c in orders]
            for seq in (in_alpha, in_gamma):
                violations += sum(not a > b for a, b in zip(seq, seq[1:]))
                checked += len(seq) - 1
    assert violations == 0
    print(
        f"criterion 6: PASS - transform value strictly decreasing in each order: "
        f"{checked} adjacent comparisons, 0 violations"
    )


def test_criterion_07_inversion_reference_pairs():
    # the shipped contour (16- and 32-node sums, tolerance check) applied
    # to textbook transforms written on numpy arrays of nodes
    def invert(fbar, t):
        return _invert(fbar, t, None)[0][0]

    ts = (0.5, 1.0, 5.0)
    err_const = max(abs(invert(lambda s: 1.0 / s, t) - 1.0) for t in ts)
    err_exp = max(
        abs(invert(lambda s: 1.0 / (s + a), t) - math.exp(-a * t))
        for a in (0.3, 0.7)
        for t in ts
    )
    alpha = 0.8
    err_ml = max(
        abs(
            invert(lambda s: s ** (alpha - 1.0) / (s**alpha + 1.0), t)
            - mittag_leffler(alpha, -(t**alpha))
        )
        for t in ts
    )
    assert err_const <= 1e-6 and err_exp <= 1e-6 and err_ml <= 1e-6
    print(
        f"criterion 7: PASS - contour inversion max abs errors: constant {err_const:.1e}, "
        f"exponential {err_exp:.1e}, one-parameter relaxation {err_ml:.1e} (<= 1e-6)"
    )


def test_criterion_08_scheme_structure():
    # strict diagonal dominance on random admissible draws
    rng = np.random.default_rng(7)
    min_margin = math.inf
    for _ in range(1000):
        p = admissible_draw(rng)
        grid = GridSpec(
            int(rng.integers(3, 61)), int(rng.integers(1, 401)), float(rng.uniform(0.1, 200.0))
        )
        matrix, _ = assemble_block_system(scheme_constants(p, grid), grid.m)
        d = np.abs(np.diag(matrix))
        off = np.abs(matrix).sum(axis=1) - d
        min_margin = min(min_margin, float(np.min(d - off)))
    assert min_margin > 1.0

    # memory-weight telescoping to the fractional power of the horizon
    orders = np.linspace(0.05, 0.95, 19)
    for order in orders:
        for k in (1, 2, 3, 5, 10, 50, 100, 200):
            total = sum(l1_bracket(float(order), k, j) for j in range(k + 1))
            expected = (k + 1.0) ** (1.0 - order)
            assert abs(total - expected) <= 1e-12 * expected

    # per-level weights stay nonnegative for every horizon up to 200
    idx = np.arange(0, 203, dtype=float)
    for order in orders:
        tab = idx ** (1.0 - order)
        for k in range(2, 201):
            j = np.arange(1, k)
            psi = 2.0 * tab[k + 1 - j] - tab[k - j] - tab[k - j + 2]
            assert psi.min() >= 0.0

    # the increment-form history and the per-level form are one identity
    p = builtin_experiment("ex51").params
    g = GridSpec(5, 6, 3.0)
    sol = solve_forward(p, g)
    worst = 0.0
    for k in range(1, g.n):
        for u, order in ((sol.u1, p.alpha), (sol.u2, p.gamma)):
            e = 1.0 - order
            direct = u[1:g.m, k].copy()
            for j in range(k):
                direct -= l1_bracket(order, k, j) * (u[1:g.m, j + 1] - u[1:g.m, j])
            level = (2.0 - 2.0**e) * u[1:g.m, k] + ((k + 1.0) ** e - k**e) * u[1:g.m, 0]
            for j in range(1, k):
                level += psi_weight(order, k, j) * u[1:g.m, j]
            worst = max(worst, float(np.max(np.abs(direct - level))))
    assert worst <= 1e-12
    print(
        f"criterion 8: PASS - dominance margin > 1 on 1000 draws (min {min_margin:.6f}), "
        f"telescoping to 1e-12, per-level weights nonnegative through k=200, "
        f"history forms agree to {worst:.1e}"
    )
