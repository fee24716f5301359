"""Order recovery: homotopy schedule, LM algebra, noise model, round trips.

The tangent-linear Jacobian is checked against a complex-step oracle,
which is exact to roundoff, and against central differences of real
marches, which converge to it at rate h^2; the LM step is checked against
a hand-solved 2x2 system.  So no recovery test can silently validate a
wrong linearization.
"""

import dataclasses
import math
import re
import types

import numpy as np
import pytest
from scipy.special import expit

from fracmim import (
    ConfigError,
    GridError,
    GridSpec,
    InversionConfig,
    InversionError,
    InversionResult,
    ModelParams,
    NumericalError,
    ObservationSeries,
    ParameterError,
    ValidationError,
    add_noise,
    builtin_experiment,
    config_document,
    extract_observation,
    invert_orders,
    parse_config,
    run_experiment,
    run_replicates,
    solve_forward,
)
from fracmim import inversion, solver
from fracmim.inversion import (
    STOP_REASONS,
    IterationRecord,
    _replicate_seeds,
    homotopy_kappa,
    lm_step,
    sensitivity_jacobian,
)
from oracles import central_difference_jacobian, complex_step_jacobian, table_rows_by_hand


def _clean_series(params, grid, x0=0.5):
    return extract_observation(solve_forward(params, grid), x0)


# ---------------------------------------------------------------------------
# homotopy schedule


def test_kappa_frozen_value():
    assert homotopy_kappa(0, 5, 0.9) == pytest.approx(0.9890130573694068, rel=1e-15)


def test_kappa_midpoint_is_half():
    assert homotopy_kappa(5, 5, 0.9) == pytest.approx(0.5, rel=1e-15)
    assert homotopy_kappa(12, 12, 2.0) == pytest.approx(0.5, rel=1e-15)


def test_kappa_strictly_decreasing_to_zero():
    values = [homotopy_kappa(j, 5, 0.9) for j in range(40)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[0] > 0.98
    assert values[-1] < 1e-13


@pytest.mark.parametrize("j0", [1, 5, 50])
@pytest.mark.parametrize("sigma", [0.1, 0.9, 2.0, 20.0])
def test_kappa_equals_expit_bit_for_bit(sigma, j0):
    # Past sigma (j - j0) = 709.78, e^x overflows: expit gives 1/(1 + inf)
    # = 0.0 there, and homotopy_kappa must too, not raise OverflowError.
    values = np.array([homotopy_kappa(j, j0, sigma) for j in range(2000)])
    expected = np.array([expit(-sigma * (j - j0)) for j in range(2000)])
    assert values.tobytes() == expected.tobytes()
    if sigma >= 0.9:  # sigma = 0.1 stops at e^195
        assert values[-1] == 0.0


def test_kappa_of_a_j_or_j0_beyond_a_float_is_the_limit():
    # The exponent sigma (j - j0) is -inf or +inf, not an overflow of e^x.
    assert homotopy_kappa(0, 10**400, 0.9) == 1.0
    assert homotopy_kappa(10**400, 5, 0.9) == 0.0


def test_kappa_rejects_negative_index():
    with pytest.raises(ValidationError, match="nonnegative"):
        homotopy_kappa(-1, 5, 0.9)


# ---------------------------------------------------------------------------
# LM step


def test_lm_step_pure_regularization_freezes():
    G = np.array([[1.0, 0.0], [0.0, 2.0]])
    r = np.array([1.0, 1.0])
    assert np.array_equal(lm_step(G, r, 1.0), np.zeros(2))


def test_lm_step_pure_gauss_newton_identity():
    G = np.eye(2)
    r = np.array([0.25, -0.5])
    assert np.allclose(lm_step(G, r, 0.0), r, rtol=0, atol=1e-15)


def test_lm_step_hand_solved_blend():
    # ((1-k) G^T G + k I) dz = (1-k) G^T r with G = diag(1, 2), r = (1, 1),
    # k = 1/2 gives dz = (0.5/1.0, 1.0/2.5) = (0.5, 0.4)
    G = np.array([[1.0, 0.0], [0.0, 2.0]])
    dz = lm_step(G, np.array([1.0, 1.0]), 0.5)
    assert dz == pytest.approx((0.5, 0.4), rel=1e-14)


def test_lm_step_singular_reported():
    G = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(InversionError, match="smallest singular value"):
        lm_step(G, np.array([1.0, 1.0]), 0.0)


def test_lm_step_validates_shapes_and_kappa():
    G = np.eye(2)
    r = np.array([1.0, 1.0])
    with pytest.raises(ValidationError, match=r"shape \(n, 2\)"):
        lm_step(np.eye(3), np.ones(3), 0.5)
    with pytest.raises(ValidationError, match=r"shape \(n, 2\)"):
        lm_step(G, np.ones(3), 0.5)
    for kappa in (1.5, "0.5", None, True):
        with pytest.raises(ValidationError, match=re.escape("kappa must lie in [0, 1]")):
            lm_step(G, r, kappa)
    with pytest.raises(ValidationError, match="G must be an array of numbers"):
        lm_step([["1", "0"], ["0", "1"]], r, 0.5)
    with pytest.raises(ValidationError, match="residual must be an array of numbers"):
        lm_step(G, ["1", "1"], 0.5)


# ---------------------------------------------------------------------------
# noise model


def test_add_noise_deterministic_and_bounded(bench_params, tiny_grid):
    clean = _clean_series(bench_params, tiny_grid)
    a = add_noise(clean, 0.05, seed=7)
    b = add_noise(clean, 0.05, seed=7)
    assert np.array_equal(a.values, b.values)
    # additive uniform perturbation: |noisy - clean| <= delta pointwise
    assert np.max(np.abs(a.values - clean.values)) <= 0.05
    assert np.max(np.abs(a.values - clean.values)) > 0.0
    assert a.noise_level == 0.05 and a.seed == 7
    assert np.array_equal(a.times, clean.times) and a.x0 == clean.x0


def test_add_noise_zero_level_identity(bench_params, tiny_grid):
    clean = _clean_series(bench_params, tiny_grid)
    out = add_noise(clean, 0.0, seed=3)
    assert np.array_equal(out.values, clean.values)


def test_add_noise_rejects_negative(bench_params, tiny_grid):
    clean = _clean_series(bench_params, tiny_grid)
    # True must not be read as the noise level 1.0
    for delta in (-0.01, np.nan, np.inf, True, False, "0.01", None):
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            add_noise(clean, delta, seed=0)


def test_add_noise_rejects_bad_seed(bench_params, tiny_grid):
    clean = _clean_series(bench_params, tiny_grid)
    for seed in (-3, 1.5, True, None, "7"):
        with pytest.raises(ValidationError, match="noise seed must be an integer >= 0"):
            add_noise(clean, 0.01, seed)


# ---------------------------------------------------------------------------
# sensitivity Jacobian


def test_jacobian_columns_finite_and_active(bench_params, tiny_grid):
    obs = _clean_series(bench_params, tiny_grid)
    _, G = sensitivity_jacobian((0.8, 0.25), bench_params, tiny_grid, obs.times, obs.x0)
    assert G.shape == (len(obs), 2)
    assert np.all(np.isfinite(G))
    assert np.linalg.norm(G[:, 0]) > 0.0 and np.linalg.norm(G[:, 1]) > 0.0


def test_jacobian_is_a_column_view_of_the_observed_rows(bench_params, tiny_grid):
    # G is observed[:, 1:] of one (n_obs, 3) array whose column 0 is the
    # series.  The layout is pinned because the last bits of lm_step's
    # G.T @ residual follow it (a contiguous copy of G moves them), and so
    # does every table row: a march that hands G back in another layout
    # moves every recovered order by roundoff.
    obs = _clean_series(bench_params, tiny_grid)
    series, G = sensitivity_jacobian((0.8, 0.25), bench_params, tiny_grid, obs.times, obs.x0)
    observed = G.base
    assert observed is series.base and observed.shape == (len(obs), 3)
    assert observed.flags.c_contiguous
    assert G.strides == (3 * G.itemsize, G.itemsize)
    assert G.ctypes.data == observed.ctypes.data + G.itemsize


@pytest.mark.parametrize(
    "name, z",
    [("ex51", None), ("ex52", None), ("ex53", None), ("ex51", (0.99, 0.99))],
    ids=["ex51", "ex52", "ex53", "corner"],
)
def test_jacobian_matches_central_difference_oracle(name, z):
    # At the true orders of each builtin table and at the clamped corner;
    # the oracle's O(h^2) truncation at h = 1e-3 is at most 2.6e-6 here.
    spec = builtin_experiment(name)
    z = z or (spec.params.alpha, spec.params.gamma)
    obs = _clean_series(spec.params, spec.grid, spec.x0)
    _, G = sensitivity_jacobian(z, spec.params, spec.grid, obs.times, obs.x0)
    F = central_difference_jacobian(z, spec.params, spec.grid, obs.times, obs.x0, 1e-3)
    rel = np.linalg.norm(G - F, axis=0) / np.linalg.norm(G, axis=0)
    assert np.all(rel <= 1e-5), rel


_CORNERS = [(0.01, 0.01), (0.99, 0.99), (0.01, 0.99), (0.99, 0.01)]


@pytest.mark.parametrize("name", ["ex51", "ex52", "ex53"])
def test_jacobian_matches_complex_step_oracle(name):
    # At the true orders and the four corners of the clamped square; the
    # two routes agree to about 1e-12 relative.
    spec = builtin_experiment(name)
    obs = _clean_series(spec.params, spec.grid, spec.x0)
    for z in [(spec.params.alpha, spec.params.gamma), *_CORNERS]:
        _, G = sensitivity_jacobian(z, spec.params, spec.grid, obs.times, obs.x0)
        oracle = complex_step_jacobian(z, spec.params, spec.grid, obs.times, obs.x0)
        rel = np.linalg.norm(G - oracle, axis=0) / np.linalg.norm(oracle, axis=0)
        assert np.all(rel <= 1e-10), (z, rel)


def test_oracle_converges_to_tangent_jacobian_at_rate_h2(bench_params, tiny_grid):
    # central differences: F(h) = G + c h^2, so each halving of h must
    # shrink the distance to the tangent-linear Jacobian by about 4
    obs = _clean_series(bench_params, tiny_grid)
    z = (0.8, 0.25)
    _, G = sensitivity_jacobian(z, bench_params, tiny_grid, obs.times, obs.x0)
    errors = [
        np.linalg.norm(
            central_difference_jacobian(z, bench_params, tiny_grid, obs.times, obs.x0, h) - G
        )
        for h in (4e-3, 2e-3, 1e-3)
    ]
    for coarse, fine in zip(errors, errors[1:]):
        assert 2.5 < coarse / fine < 6.0


@pytest.mark.parametrize("name", ["ex51", "ex52", "ex53"])
def test_jacobian_series_matches_real_march(name):
    # The residual is read from the tangent-linear march's state, which
    # must be the real march up to roundoff: at the true orders and at the
    # four corners of the clamped square.
    spec = builtin_experiment(name)
    for z in [(spec.params.alpha, spec.params.gamma), *_CORNERS]:
        obs = _clean_series(spec.params.with_orders(*z), spec.grid, spec.x0)
        series, _ = sensitivity_jacobian(z, spec.params, spec.grid, obs.times, obs.x0)
        assert np.max(np.abs(series - obs.values)) <= 1e-12, z


def test_jacobian_rejects_order_outside_unit_interval(bench_params, tiny_grid):
    obs = _clean_series(bench_params, tiny_grid)
    for z, name in [((-0.5, 0.5), "alpha"), ((0.5, 1.2), "gamma")]:
        with pytest.raises(ParameterError, match=rf"{name} must lie in \(0,1\]"):
            sensitivity_jacobian(z, bench_params, tiny_grid, obs.times, obs.x0)


# ---------------------------------------------------------------------------
# configuration


@pytest.mark.parametrize(
    "field, value, msg",
    [
        ("j0", 0, "j0 must be an integer >= 1"),
        ("sigma", 0.0, "sigma must be positive"),
        ("max_iter", 0, "max_iter must be an integer >= 1"),
        ("step_tol", 0.0, "step_tol must be positive"),
        ("j0", True, "j0 must be an integer >= 1"),
        ("clamp_margin", 0.3, r"clamp_margin must lie in \(0, 0.2\)"),
        ("z0", (0.5, float("nan")), "z0 must be a finite pair"),
        ("max_iter", True, "max_iter must be an integer >= 1"),
        ("sigma", True, "sigma must be positive"),
        ("step_tol", True, "step_tol must be positive"),
        ("clamp_margin", True, r"clamp_margin must lie in \(0, 0.2\)"),
        ("z0", (True, 0.5), "z0 must be a finite pair"),
        ("step_tol", math.inf, "step_tol must be positive and finite"),
        ("step_tol", math.nan, "step_tol must be positive and finite"),
        ("sigma", math.inf, "sigma must be positive and finite"),
        ("j0", 10**400, "j0 is too large for a float"),
        ("z0", 5, "z0 must be a finite pair"),
        ("z0", None, "z0 must be a finite pair"),
    ],
)
def test_config_validation(field, value, msg):
    with pytest.raises(ConfigError, match=msg):
        InversionConfig(**{field: value})


def test_config_first_weight_boundary():
    # A first weight at or just below 1 damps the first steps to nearly
    # nothing; the step test measures the undamped step, so a late
    # homotopy runs longer instead of stopping at z0.
    spec = builtin_experiment("ex51")
    grid = GridSpec(m=8, n=20, T=100.0)
    obs = _clean_series(spec.params, grid, spec.x0)
    z_exact = (spec.params.alpha, spec.params.gamma)
    assert homotopy_kappa(0, 50, 0.9) == homotopy_kappa(0, 1, 36.8) == 1.0
    late = [InversionConfig(j0=j0) for j0 in (25, 30, 40, 50)]
    for cfg in late + [InversionConfig(sigma=20.0), InversionConfig(j0=1, sigma=36.8)]:
        res = invert_orders(obs, spec.params, grid, cfg, z_exact)
        assert res.converged and res.iterations > 1, cfg
        assert res.rel_error < 1e-10, cfg
    # a homotopy that never leaves weight 1 ends at the cap, not converged
    res = invert_orders(obs, spec.params, grid, InversionConfig(j0=200), z_exact)
    assert res.stop_reason == "max_iter" and not res.converged
    for name in ("ex51", "ex52", "ex53"):
        cfg = builtin_experiment(name).inversion
        assert InversionConfig(**dataclasses.asdict(cfg)) == cfg


def test_result_derives_iterations_and_converged():
    rec = IterationRecord(z=(0.5, 0.5), kappa=0.9, residual_norm=0.1, step_norm=0.2,
                          sigma_min=0.5)
    res = InversionResult(z_inv=(0.5, 0.5), rel_error=None, history=[rec, rec],
                          stop_reason="max_iter")
    assert res.iterations == 2 and not res.converged
    res.stop_reason = "step_tol"
    assert res.converged
    with pytest.raises(AttributeError):
        res.iterations = 3
    with pytest.raises(TypeError):
        InversionResult(z_inv=(0.5, 0.5), rel_error=None, history=[], iterations=3,
                        stop_reason="max_iter")


# ---------------------------------------------------------------------------
# full recovery


def test_fixed_point_stops_immediately(bench_params, tiny_grid):
    obs = _clean_series(bench_params, tiny_grid)
    res = invert_orders(
        obs, bench_params, tiny_grid, InversionConfig(z0=(0.8, 0.25)), z_exact=(0.8, 0.25)
    )
    assert res.converged and res.stop_reason == "step_tol"
    assert res.iterations == 1
    assert res.rel_error == 0.0


@pytest.mark.parametrize("z_exact", [(0.0, 0.0), (math.nan, 0.5), (1, 2, 3)])
def test_invert_rejects_bad_exact_orders_before_marching(
    bench_params, tiny_grid, monkeypatch, z_exact
):
    obs = _clean_series(bench_params, tiny_grid)

    def forbidden(*args, **kwargs):
        raise AssertionError("marched before z_exact was checked")

    monkeypatch.setattr(inversion, "_tangent_march", forbidden)
    with pytest.raises(ValidationError, match="z_exact"):
        invert_orders(obs, bench_params, tiny_grid, z_exact=z_exact)


@pytest.mark.parametrize(
    "bad", [("params",), ("x0",), ("times",), ("x0", "times"), ("params", "x0", "times")]
)
def test_invert_checks_params_node_and_times_once_before_marching(
    bench_params, tiny_grid, monkeypatch, bad
):
    # invert_orders checks the parameters, the node and the times once,
    # before its first march, and must raise what the first iteration's
    # sensitivity_jacobian raised, in the same order.
    obs = _clean_series(bench_params, tiny_grid)
    p_base = dataclasses.replace(bench_params, beta=1.5) if "params" in bad else bench_params
    x0 = obs.x0 + 0.01 if "x0" in bad else obs.x0
    times = obs.times + 0.1 if "times" in bad else obs.times
    obs = ObservationSeries(x0=x0, times=times, values=obs.values)
    expected = ParameterError if "params" in bad else GridError

    def forbidden(*args, **kwargs):
        raise AssertionError("marched before the checks")

    monkeypatch.setattr(inversion, "_tangent_march", forbidden)
    z0 = tuple(np.clip(InversionConfig().z0, 0.01, 0.99))
    with pytest.raises(expected) as first_iteration:
        sensitivity_jacobian(z0, p_base, tiny_grid, obs.times, obs.x0)
    with pytest.raises(expected, match=re.escape(str(first_iteration.value))):
        invert_orders(obs, p_base, tiny_grid)


def test_recovery_from_cold_start(bench_params, tiny_grid):
    obs = _clean_series(bench_params, tiny_grid)
    res = invert_orders(
        obs, bench_params, tiny_grid, InversionConfig(z0=(0.5, 0.5)), z_exact=(0.8, 0.25)
    )
    assert res.converged
    assert res.rel_error <= 1e-3
    assert len(res.history) == res.iterations
    kappas = [rec.kappa for rec in res.history]
    assert all(a > b for a, b in zip(kappas, kappas[1:]))


def test_recovery_round_trip_property():
    # 20 random order pairs on a coarse grid; the cold start recovers at
    # least 18. The known failure class (gamma well above alpha from a
    # symmetric start) is tolerated but reported.
    base = ModelParams(
        P=5.0, R1=2.0, R2=2.0, beta=0.3, omega=1.0, lam=0.05, mu=0.1, alpha=0.5, gamma=0.5
    )
    g = GridSpec(8, 40, 100.0)
    rng = np.random.default_rng(0)
    failures = []
    for _ in range(20):
        a, c = rng.uniform(0.05, 0.95, size=2)
        p = base.with_orders(float(a), float(c))
        obs = _clean_series(p, g)
        res = invert_orders(
            obs, base, g, InversionConfig(z0=(0.5, 0.5)), z_exact=(float(a), float(c))
        )
        if res.rel_error > 1e-3:
            failures.append((round(float(a), 3), round(float(c), 3), res.rel_error))
    if failures:
        print(f"unrecovered order pairs: {failures}")
    assert len(failures) <= 2


def test_each_iteration_runs_one_tangent_march(bench_params, tiny_grid, monkeypatch):
    # Residual and sensitivities come from one tangent-linear march; no
    # real forward march runs inside the iteration.
    obs = _clean_series(bench_params, tiny_grid)
    march = inversion._tangent_march
    orders = []

    def counted(params, grid):
        orders.append((params.alpha, params.gamma))
        return march(params, grid)

    def forbidden(*args, **kwargs):
        raise AssertionError("invert_orders ran a real forward march")

    def state_only_forbidden(params, grid, tangents=True):
        if not tangents:
            forbidden()
        return march(params, grid, tangents)

    monkeypatch.setattr(inversion, "_tangent_march", counted)
    monkeypatch.setattr(inversion, "solve_forward", forbidden)
    # solve_forward's march: the tangent march with the state alone.
    monkeypatch.setattr(solver, "_tangent_march", state_only_forbidden)
    res = invert_orders(obs, bench_params, tiny_grid, InversionConfig(z0=(0.5, 0.5)))
    assert res.iterations >= 2
    assert len(orders) == res.iterations
    # record j holds the iterate that iteration j marched at
    assert orders == [rec.z for rec in res.history]


def test_shared_first_march_leaves_every_result_of_a_row_unchanged():
    # The inversions of a table row start at one z0, so all but the first
    # take their first march from the memo; it must not move one bit of
    # any result.
    spec = builtin_experiment("ex51")
    delta = spec.noise_levels[0]
    clean = _clean_series(spec.params, spec.grid, spec.x0)
    z_exact = (spec.params.alpha, spec.params.gamma)
    seeds = _replicate_seeds(spec.seed, delta, spec.replicates)

    def row(cold):
        results = []
        for seed in seeds:
            if cold:
                inversion._first_march.cache_clear()
            r = invert_orders(add_noise(clean, delta, seed), spec.params, spec.grid,
                              spec.inversion, z_exact)
            results.append((r.z_inv, r.history, r.stop_reason))
        return results

    cold = row(cold=True)
    inversion._first_march.cache_clear()
    warm = row(cold=False)
    assert inversion._first_march.cache_info().hits == len(seeds) - 1
    assert warm == cold


def test_a_row_of_replicates_shares_one_first_march(tiny_grid, monkeypatch):
    replicates, delta = 4, 0.01
    spec = dataclasses.replace(builtin_experiment("ex51"), grid=tiny_grid, replicates=replicates)
    march = inversion._tangent_march
    marches = []

    def counted(*args, **kwargs):
        marches.append(None)
        return march(*args, **kwargs)

    monkeypatch.setattr(inversion, "_tangent_march", counted)
    clean = _clean_series(spec.params, tiny_grid, spec.x0)
    z_exact = (spec.params.alpha, spec.params.gamma)
    for seed in _replicate_seeds(spec.seed, delta, replicates):
        inversion._first_march.cache_clear()
        noisy = add_noise(clean, delta, seed)
        invert_orders(noisy, spec.params, tiny_grid, spec.inversion, z_exact)
    cold = len(marches)
    marches.clear()
    inversion._first_march.cache_clear()
    # the row's own clean march is solve_forward's, not counted here
    run_replicates(spec, delta)
    assert len(marches) == cold - (replicates - 1)


def test_history_records_smallest_singular_value(bench_params, tiny_grid):
    obs = _clean_series(bench_params, tiny_grid)
    res = invert_orders(obs, bench_params, tiny_grid, InversionConfig(z0=(0.5, 0.5), max_iter=3))
    for rec in res.history:  # each record's sigma_min is that of G at its own iterate
        _, G = sensitivity_jacobian(rec.z, bench_params, tiny_grid, obs.times, obs.x0)
        assert rec.sigma_min == np.linalg.svd(G, compute_uv=False)[-1] > 0.0


def test_iteration_cap_stop(bench_params, tiny_grid):
    obs = _clean_series(bench_params, tiny_grid)
    res = invert_orders(obs, bench_params, tiny_grid, InversionConfig(z0=(0.5, 0.5), max_iter=2))
    assert res.stop_reason == "max_iter"
    assert not res.converged
    assert res.iterations == 2 and len(res.history) == 2
    assert res.rel_error is None


@pytest.mark.parametrize(
    "drift, max_iter, stop",
    [(0.0, 100, "step_tol"), (1.0, 100, "residual_rise"), (0.0, 3, "max_iter")],
)
def test_each_stop_reason_on_a_stubbed_march(bench_params, tiny_grid, monkeypatch,
                                             drift, max_iter, stop):
    # The stub's series is z itself, plus ``drift`` times the number of
    # marches so far: without drift the data (0.3, 0.6) are met exactly,
    # with it the residual grows every iteration, and z is driven onto
    # the clamp, so the step never shrinks.  No real march is run, so no
    # roundoff decides the stop.
    marches = []

    def stub(base, g, i, idx):
        marches.append(base)
        return np.array([base.alpha, base.gamma]) + drift * len(marches), np.eye(2)

    monkeypatch.setattr(inversion, "_observed_march", stub)
    obs = ObservationSeries(x0=0.5, times=[0.5, 1.0], values=[0.3, 0.6])
    cfg = InversionConfig(max_iter=max_iter)
    res = invert_orders(obs, bench_params, tiny_grid, cfg)
    assert res.stop_reason == stop and res.converged == (stop == "step_tol")
    assert res.iterations == len(marches)
    if stop == "step_tol":
        assert res.z_inv == pytest.approx((0.3, 0.6), abs=cfg.step_tol)
    elif stop == "residual_rise":
        # the first weight below the arming level, then one rise per iteration
        quiet = next(j for j in range(max_iter)
                     if homotopy_kappa(j, cfg.j0, cfg.sigma) < inversion._KAPPA_QUIET)
        assert res.iterations == quiet + inversion._RISES_TO_STOP
        norms = [rec.residual_norm for rec in res.history[quiet - 1:]]
        assert all(a < b for a, b in zip(norms, norms[1:]))
        assert res.z_inv == (cfg.clamp_margin,) * 2
    else:
        assert res.iterations == 3


def test_non_finite_residual_stops_the_iteration(bench_params, tiny_grid, monkeypatch):
    # The third march returns a NaN series: the iteration stops there,
    # naming the iteration, instead of stepping on a NaN residual.
    marches = []

    def stub(base, g, i, idx):
        marches.append(base)
        series = np.array([base.alpha, base.gamma])
        return series * math.nan if len(marches) == 3 else series, np.eye(2)

    monkeypatch.setattr(inversion, "_observed_march", stub)
    obs = ObservationSeries(x0=0.5, times=[0.5, 1.0], values=[0.3, 0.6])
    with pytest.raises(InversionError, match="non-finite residual at iteration 2"):
        invert_orders(obs, bench_params, tiny_grid, InversionConfig())
    assert len(marches) == 3


def test_unstable_start_completes_off_target():
    # symmetric-corner start with gamma > alpha: the iteration is known to
    # settle off target; it must still terminate cleanly with a history
    spec = builtin_experiment("ex53")
    small = dataclasses.replace(spec, grid=GridSpec(10, 50, 100.0))
    obs = _clean_series(small.params, small.grid)
    res = invert_orders(
        obs,
        small.params,
        small.grid,
        InversionConfig(z0=(0.0, 0.0)),
        z_exact=(small.params.alpha, small.params.gamma),
    )
    assert res.stop_reason in ("step_tol", "residual_rise", "max_iter")
    assert len(res.history) == res.iterations >= 1
    print(f"cold (0,0) start on ex53 landed at {res.z_inv}, rel error {res.rel_error:.2e}")


# ---------------------------------------------------------------------------
# replicate harness


def test_replicates_deterministic(tiny_grid):
    spec = dataclasses.replace(builtin_experiment("ex51"), grid=tiny_grid, replicates=3)
    s1 = run_replicates(spec, delta=0.01)
    s2 = run_replicates(spec, delta=0.01)
    assert s1 == s2
    assert s1.replicates == 3 and s1.failures == 0


def test_replicates_noise_free_matches_single_run(tiny_grid):
    # a noise-free row runs one replicate, whatever the spec's count
    spec = dataclasses.replace(builtin_experiment("ex51"), grid=tiny_grid, replicates=2**62)
    summary = run_replicates(spec, delta=0.0)
    assert summary.replicates == 1 and summary.failures == 0
    obs = _clean_series(spec.params, tiny_grid, spec.x0)
    single = invert_orders(
        obs, spec.params, tiny_grid, spec.inversion,
        z_exact=(spec.params.alpha, spec.params.gamma),
    )
    assert summary.z_mean == single.z_inv
    assert summary.rel_error_mean == single.rel_error
    assert summary.iterations_mean == single.iterations
    assert summary.stops == {reason: int(reason == single.stop_reason) for reason in STOP_REASONS}


def test_replicates_count_a_failure_and_average_the_rest(tiny_grid, monkeypatch):
    spec = dataclasses.replace(builtin_experiment("ex51"), grid=tiny_grid, replicates=3)
    real = inversion.invert_orders
    calls, finished = [], []

    def second_one_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise NumericalError("injected")
        finished.append(real(*args, **kwargs))
        return finished[-1]

    monkeypatch.setattr(inversion, "invert_orders", second_one_fails)
    summary = run_replicates(spec, delta=0.01)
    assert summary.replicates == 3 and summary.failures == 1
    assert len(finished) == 2
    # The kept replicates are the first and third seeds' inversions.
    seeds = _replicate_seeds(spec.seed, 0.01, 3)
    clean = _clean_series(spec.params, tiny_grid, spec.x0)
    z_exact = (spec.params.alpha, spec.params.gamma)
    for r, seed in zip(finished, (seeds[0], seeds[2])):
        alone = real(add_noise(clean, 0.01, seed), spec.params, tiny_grid, spec.inversion, z_exact)
        assert r.z_inv == alone.z_inv
    z = np.mean([r.z_inv for r in finished], axis=0)
    assert summary.z_mean == (z[0], z[1])
    assert summary.rel_error_mean == np.mean([r.rel_error for r in finished])
    assert summary.iterations_mean == np.mean([r.iterations for r in finished])
    assert sum(summary.stops.values()) == 2  # a failed replicate has no stop


def test_replicates_count_stop_reasons():
    # Every ex51 replicate at delta = 0.001 ends on the step test; the
    # counts hold every reason, in table order.
    spec = builtin_experiment("ex51")
    assert spec.replicates == 10
    summary = run_replicates(spec, delta=0.001)
    assert summary.failures == 0
    assert list(summary.stops.items()) == [("step_tol", 10), ("residual_rise", 0), ("max_iter", 0)]
    assert STOP_REASONS == ("step_tol", "residual_rise", "max_iter")


def test_replicates_validates_count(tiny_grid, monkeypatch):
    # Every count is refused before the clean march, including one whose
    # seeds numpy will not draw.  ExperimentSpec refuses the others when it
    # is built, so they come on an object that only carries its attributes.
    marches = []
    monkeypatch.setattr(inversion, "solve_forward", lambda *args: marches.append(args))
    spec = dataclasses.replace(builtin_experiment("ex51"), grid=tiny_grid)

    def carrying(count):
        return types.SimpleNamespace(**{**vars(spec), "replicates": count})

    for count in (0, 2.5, True, "3"):
        with pytest.raises(ValidationError, match=re.escape("replicates must be an integer >= 1")):
            run_replicates(carrying(count), 0.01)
    with pytest.raises(ValidationError, match="replicates is too large for a float"):
        run_replicates(carrying(10**400), 0.01)
    with pytest.raises(ValidationError, match=f"replicates={2**62} is too many seeds for numpy"):
        run_replicates(dataclasses.replace(spec, replicates=2**62), 0.01)
    assert marches == []


@pytest.mark.parametrize(
    "delta, message",
    [
        (math.nan, "noise level delta must be finite and nonnegative"),
        (-0.5, "noise level delta must be finite and nonnegative"),
        (math.inf, "noise level delta must be finite and nonnegative"),
        ("x", "noise level delta must be finite and nonnegative"),
        (True, "noise level delta must be finite and nonnegative"),
        (1e300, "noise level 1e+300 is too large to key a seed stream"),
    ],
    ids=["nan", "negative", "inf", "text", "bool", "huge"],
)
def test_replicates_validate_level(tiny_grid, monkeypatch, delta, message):
    # A level that add_noise or the seed key would refuse is refused before
    # its seeds are drawn and before the clean march, as a ValidationError.
    marches = []
    monkeypatch.setattr(inversion, "solve_forward", lambda *args: marches.append(args))
    spec = dataclasses.replace(builtin_experiment("ex51"), grid=tiny_grid, replicates=2)
    with pytest.raises(ValidationError, match=re.escape(message)):
        run_replicates(spec, delta)
    assert marches == []


def test_a_table_is_its_rows_by_hand(tiny_grid):
    # One clean series for the whole spec and one replicate at delta = 0,
    # whatever the spec's count: run_experiment's rows, field for field.
    spec = dataclasses.replace(builtin_experiment("ex51"), grid=tiny_grid,
                               noise_levels=(0.01, 0.0), replicates=3)
    rows = run_experiment(spec).rows
    assert [r.replicates for r in rows] == [3, 1]
    assert rows == table_rows_by_hand(spec)


def test_replicate_seeds_vary_with_level():
    a = _replicate_seeds(1234, 0.05, 5)
    b = _replicate_seeds(1234, 0.01, 5)
    assert len(a) == len(set(a)) == 5
    assert set(a).isdisjoint(b)
    assert a == _replicate_seeds(1234, 0.05, 5)


def test_spec_rejects_levels_sharing_a_seed_stream():
    # Levels are keyed to the nanounit, so 4e-10 would replay delta = 0's seeds.
    assert _replicate_seeds(1, 4e-10, 3) == _replicate_seeds(1, 0.0, 3)
    base = builtin_experiment("ex51")
    with pytest.raises(ConfigError, match="share one seed stream"):
        dataclasses.replace(base, noise_levels=(0.01, 4e-10, 0.0))
    # -0.0 equals 0.0 but is labelled "-0": it would replay level 0 under another name
    with pytest.raises(ConfigError, match="noise levels 0 and -0 share one seed stream"):
        dataclasses.replace(base, noise_levels=(0.0, 0.01, -0.0))
    # a level alone on its key is accepted
    dataclasses.replace(base, noise_levels=(4e-10, 0.01))


@pytest.mark.parametrize(
    "field, value, msg",
    [
        ("x0", True, "x0 must lie strictly inside"),
        ("noise_levels", (0.01, True), "noise_levels must be finite and nonnegative"),
        ("replicates", True, "replicates must be an integer >= 1"),
        ("seed", False, "seed must be an integer"),
        ("reference_points", ((0.5, True),), "must hold pairs of numbers"),
        ("exact_orders", (True, 0.25), "must hold pairs of numbers"),
        ("seed", -1, "seed must be an integer >= 0"),
        ("noise_levels", 0.01, "noise_levels must be finite and nonnegative"),
        ("exact_orders", 5, "must hold pairs of numbers"),
        ("reference_points", 5, "must hold pairs of numbers"),
        ("reference_points", (5,), "must hold pairs of numbers"),
    ],
)
def test_spec_rejects_bool_numbers(field, value, msg):
    with pytest.raises(ConfigError, match=msg):
        dataclasses.replace(builtin_experiment("ex51"), **{field: value})


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_with_seed_validates_the_seed(seed):
    # with_seed must not round 1.5 or True to an integer seed
    with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
        builtin_experiment("ex51").with_seed(seed)


@pytest.mark.parametrize(
    "levels, msg",
    [
        # one pass over the levels: each level meets every rule before the next
        ((1e300, 0.5, 0.5000001), "noise level 1e+300 is too large to key a seed stream"),
        ((0.5, 0.5, math.nan), "noise levels 0.5 and 0.5 share the label 0.5"),
        ((0.0, -0.0, 0.5, 0.5000001), "noise levels 0 and -0 share one seed stream"),
    ],
)
def test_spec_names_the_first_faulty_noise_level(levels, msg):
    with pytest.raises(ConfigError, match=re.escape(msg)):
        dataclasses.replace(builtin_experiment("ex51"), noise_levels=levels)


def _ex51_with(**fields):
    return dataclasses.replace(builtin_experiment("ex51"), **fields)


@pytest.mark.parametrize(
    "make, msg",
    [
        (lambda v: builtin_experiment("ex51").with_seed(v), "seed is too large for a float"),
        (lambda v: _ex51_with(replicates=v), "replicates is too large for a float"),
        (lambda v: _ex51_with(inversion=InversionConfig(max_iter=v)),
         "max_iter is too large for a float"),
    ],
    ids=["seed", "replicates", "max_iter"],
)
def test_spec_holds_only_integers_its_sidecar_reloads(make, msg):
    # config_document writes them as JSON integers, which parse_config
    # rejects beyond a double.
    spec = make(2**1023)
    assert parse_config(config_document(spec), spec.name) == spec
    with pytest.raises(ConfigError, match=msg):
        make(10**400)


# Replicates of the builtin tables whose stop is decided by roundoff.
_ULP_FLIPS = [("ex52", 0.05, 5), ("ex53", 0.01, 0), ("ex53", 0.01, 8)]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: residual_rise compares residual norms with no roundoff "
    "tolerance, so one ulp of the series moves these stops",
)
@pytest.mark.parametrize("name, delta, replicate", _ULP_FLIPS)
def test_one_ulp_of_the_series_keeps_the_stop(name, delta, replicate):
    spec = builtin_experiment(name)
    clean = _clean_series(spec.params, spec.grid, spec.x0)
    seed = _replicate_seeds(spec.seed, delta, spec.replicates)[replicate]
    noisy = add_noise(clean, delta, seed)
    shifted = dataclasses.replace(noisy, values=np.nextafter(noisy.values, np.inf))
    z_exact = (spec.params.alpha, spec.params.gamma)
    before, after = (
        invert_orders(obs, spec.params, spec.grid, spec.inversion, z_exact)
        for obs in (noisy, shifted)
    )
    assert (after.stop_reason, after.iterations) == (before.stop_reason, before.iterations)
