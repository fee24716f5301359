"""Value objects and L1 weight functions.

The weight identities here are the algebraic backbone of the marching
scheme: the telescoping sum fixes the discrete derivative's consistency,
psi-weight nonnegativity is what makes the rearranged history a convex
combination, and the order-1 degenerations are what let one code path
cover both the fractional and the classical system.
"""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from fracmim import (
    ConfigError,
    ExperimentSpec,
    GridSpec,
    InversionConfig,
    ModelParams,
    ObservationSeries,
    ParameterError,
    SolutionGrid,
    ValidationError,
    GridError,
    add_noise,
    invert_at,
    solve_forward,
)
from fracmim.model import validate_params
from conftest import BENCH_PARAMS, admissible_draw
from oracles import l1_bracket, l1_power_table, psi_weight


# ---------------------------------------------------------------------------
# validate_params


def test_benchmark_params_are_valid(bench_params):
    assert validate_params(bench_params) is bench_params


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("alpha", 1.0, "alpha must lie in (0,1)"),
        ("alpha", 0.0, "alpha must lie in (0,1)"),
        ("gamma", -0.1, "gamma must lie in (0,1)"),
        ("beta", 0.0, "beta must lie in (0,1)"),
        ("beta", 1.0, "beta must lie in (0,1)"),
        ("R1", 0.99, "R1 must be at least 1"),
        ("R2", 0.5, "R2 must be at least 1"),
        ("P", 0.0, "P must be positive"),
        ("omega", 0.0, "omega must be positive"),
        ("lam", 0.0, "lam must be positive"),
        ("mu", -1.0, "mu must be positive"),
        ("P", True, "P must be a finite number"),
        ("omega", True, "omega must be a finite number"),
    ],
)
def test_validate_params_names_first_violated_bound(field, value, message):
    bad = dataclasses.replace(BENCH_PARAMS, **{field: value})
    with pytest.raises(ParameterError, match=re.escape(message)):
        validate_params(bad)


def test_validate_params_rejects_non_finite():
    bad = dataclasses.replace(BENCH_PARAMS, P=math.nan)
    with pytest.raises(ParameterError, match="P must be a finite number"):
        validate_params(bad)


_HUGE = 10**400  # an int beyond a double: math.isfinite raises OverflowError on it
_SERIES = ObservationSeries(x0=0.5, times=[1.0], values=[0.0])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: GridSpec(m=4, n=4, T=_HUGE), GridError, "T must be a positive finite number"),
        (lambda: validate_params(dataclasses.replace(BENCH_PARAMS, P=_HUGE)),
         ParameterError, "P must be a finite number"),
        (lambda: ObservationSeries(x0=0.5, times=[1.0], values=[0.0], noise_level=_HUGE),
         ValidationError, "noise_level must be finite and nonnegative"),
        (lambda: InversionConfig(sigma=_HUGE), ConfigError, "sigma must be positive and finite"),
        (lambda: InversionConfig(step_tol=_HUGE), ConfigError,
         "step_tol must be positive and finite"),
        (lambda: InversionConfig(z0=(_HUGE, 0.5)), ConfigError,
         "z0 must be a finite pair (alpha0, gamma0)"),
        (lambda: add_noise(_SERIES, _HUGE, 1), ValidationError,
         "noise level delta must be finite and nonnegative"),
        (lambda: ExperimentSpec(params=BENCH_PARAMS, noise_levels=(_HUGE,)), ConfigError,
         "noise_levels must be finite and nonnegative"),
        (lambda: ExperimentSpec(params=BENCH_PARAMS, reference_points=((0.5, _HUGE),)),
         ConfigError, "needs x in [0,1] and a positive finite t"),
        (lambda: invert_at(0.5, _HUGE, BENCH_PARAMS), ValidationError,
         "t must be a positive finite time"),
        (lambda: solve_forward(BENCH_PARAMS, GridSpec(m=4, n=4, T=1.0), inlet=_HUGE),
         ParameterError, "inlet must be a finite number"),
    ],
    ids=["T", "P", "noise_level", "sigma", "step_tol", "z0", "delta", "noise_levels",
         "reference_points", "invert_at", "inlet"],
)
def test_scalar_checks_reject_ints_beyond_a_double(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_with_orders_replaces_only_orders(bench_params):
    p = bench_params.with_orders(0.3, 0.9)
    assert (p.alpha, p.gamma) == (0.3, 0.9)
    assert (p.P, p.beta, p.lam) == (bench_params.P, bench_params.beta, bench_params.lam)


# ---------------------------------------------------------------------------
# l1_bracket


def test_bracket_frozen_values():
    # sqrt(2) - 1 and 3^0.75 - 2^0.75, both evaluated independently.
    assert l1_bracket(0.5, 1, 0) == pytest.approx(0.41421356237309505, rel=1e-15)
    assert l1_bracket(0.25, 2, 0) == pytest.approx(0.5977142264473486, rel=1e-15)


def test_bracket_order_one_degeneration():
    # exponent 0 collapses all history terms, leaving exactly the
    # backward-difference weight at j = k.
    assert l1_bracket(1.0, 7, 3) == 0.0
    assert l1_bracket(1.0, 7, 7) == 1.0
    assert l1_bracket(1.0, 0, 0) == 1.0


def test_bracket_positive_and_decreasing_in_age():
    rng = np.random.default_rng(7)
    for _ in range(50):
        order = rng.uniform(0.05, 0.95)
        k = int(rng.integers(1, 40))
        w = [l1_bracket(order, k, j) for j in range(k + 1)]
        assert all(v > 0 for v in w)
        # older increments weigh less: w increases with j up to 1 at j=k
        assert all(a < b for a, b in zip(w, w[1:]))
        assert w[-1] == pytest.approx(1.0, abs=1e-15)


def test_bracket_telescopes_to_power_of_step_count():
    rng = np.random.default_rng(11)
    for _ in range(50):
        order = rng.uniform(0.05, 0.95)
        k = int(rng.integers(0, 60))
        total = sum(l1_bracket(order, k, j) for j in range(k + 1))
        assert total == pytest.approx((k + 1) ** (1.0 - order), rel=1e-12)


def test_bracket_rejects_bad_indices():
    with pytest.raises(ValueError, match="0 <= j <= k"):
        l1_bracket(0.5, 3, 4)
    with pytest.raises(ValueError, match="0 <= j <= k"):
        l1_bracket(0.5, 3, -1)


# ---------------------------------------------------------------------------
# psi_weight


def test_psi_frozen_values():
    # 2*2^0.5 - 1 - 3^0.5 and 2*3^0.8 - 2^0.8 - 4^0.8.
    assert psi_weight(0.5, 2, 1) == pytest.approx(0.09637631717731280, rel=1e-14)
    assert psi_weight(0.2, 3, 1) == pytest.approx(0.04391511094833965, rel=1e-14)


def test_psi_order_one_is_zero():
    assert psi_weight(1.0, 2, 1) == 0.0
    assert psi_weight(1.0, 9, 4) == 0.0


def test_psi_nonnegative_by_enumeration():
    # Concavity of t^(1-order) makes every second difference nonnegative;
    # enumerate a full (order, k, j) box rather than trusting the algebra.
    for order in np.linspace(0.05, 0.95, 19):
        table = l1_power_table(order, 200)
        for k in range(2, 201):
            j = np.arange(1, k)
            psi = 2.0 * table[k + 1 - j] - table[k - j] - table[k + 2 - j]
            assert np.all(psi >= 0.0), f"negative psi at order={order}, k={k}"


def test_psi_matches_power_table_differences():
    order, k = 0.35, 17
    table = l1_power_table(order, k + 2)
    for j in range(1, k):
        expected = 2.0 * table[k + 1 - j] - table[k - j] - table[k + 2 - j]
        assert psi_weight(order, k, j) == pytest.approx(expected, abs=1e-16)


def test_psi_rejects_bad_indices():
    with pytest.raises(ValueError, match="k >= 2"):
        psi_weight(0.5, 1, 1)
    with pytest.raises(ValueError, match="1 <= j <= k-1"):
        psi_weight(0.5, 4, 4)


# ---------------------------------------------------------------------------
# l1_power_table


def test_power_table_values_and_zero_convention():
    t = l1_power_table(0.25, 5)
    assert t.shape == (7,)
    assert t[0] == 0.0
    assert np.allclose(t[1:], np.arange(1, 7) ** 0.75, rtol=1e-15)
    # order 1: every positive entry is 1, the zero entry stays 0
    t1 = l1_power_table(1.0, 4)
    assert t1[0] == 0.0 and np.all(t1[1:] == 1.0)


# ---------------------------------------------------------------------------
# GridSpec


def test_grid_steps_and_nodes():
    g = GridSpec(m=4, n=5, T=2.0)
    assert g.h == 0.25
    assert g.tau == 0.4
    assert np.allclose(g.space_nodes(), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(g.time_nodes(), [0.0, 0.4, 0.8, 1.2, 1.6, 2.0])


@pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf, 1e308])
def test_interior_node_rejects_non_finite_position(x0):
    # 1e308 * m overflows: a position that cannot be rounded to a node.
    with pytest.raises(GridError, match=re.escape(f"x0={x0!r} must be an interior node")):
        GridSpec(m=40, n=5, T=1.0).interior_node(x0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 1e300, 1.7e308, -1e300])
def test_time_indices_rejects_far_times_without_warning(t):
    # tau = 0.2: 1.7e308 / tau overflows, and NaN or inf cannot be cast to int.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GridError, match=re.escape(f"not aligned with grid times: [{t!r}]")):
            GridSpec(m=40, n=5, T=1.0).time_indices([0.2, t])


@pytest.mark.parametrize("huge", [_HUGE, -_HUGE], ids=["huge", "minus_huge"])
def test_grid_lookups_reject_ints_beyond_a_double(huge):
    # Converting such an int to a float raises OverflowError; both lookups
    # must answer with their own GridError instead.
    g = GridSpec(m=40, n=5, T=1.0)
    with pytest.raises(GridError, match=re.escape(f"x0={huge!r} must be an interior node")):
        g.interior_node(huge)
    with pytest.raises(GridError, match=re.escape("not aligned with grid times")):
        g.time_indices([0.2, huge])


@pytest.mark.parametrize(
    "times",
    [["x"], [[0.2], [0.4, 0.6]], [1j], ["0.5"], [b"0.5"], [True], np.array([True])],
    ids=["text", "ragged", "complex", "numeric_text", "bytes", "bool", "bool_array"],
)
def test_time_indices_rejects_times_that_are_not_floats(times):
    with pytest.raises(GridError, match=re.escape("not aligned with grid times")):
        GridSpec(m=40, n=200, T=100.0).time_indices(times)


@pytest.mark.parametrize(
    "times, values, msg",
    [
        ([_HUGE], [0.1], "times must be finite"),
        ([-_HUGE], [0.1], "times must be finite"),
        (["a"], [0.1], "times must be finite"),
        ([[1.0], [2.0, 3.0]], [0.1, 0.2], "times must be finite"),
        ([1.0], [_HUGE], "observation values must be finite"),
        ([1.0], ["a"], "observation values must be finite"),
        ([1.0, 2.0], [[0.1], [0.2, 0.3]], "observation values must be finite"),
        (["1.0"], [0.1], "times must be finite"),
        ([1.0], ["0.1"], "observation values must be finite"),
    ],
    ids=["huge_time", "minus_huge_time", "text_time", "ragged_times",
         "huge_value", "text_value", "ragged_values", "numeric_text_time",
         "numeric_text_value"],
)
def test_observation_series_rejects_non_floats(times, values, msg):
    with pytest.raises(ValidationError, match=msg):
        ObservationSeries(x0=0.5, times=times, values=values)


def test_grid_lookups_accept_numpy_scalars():
    g = GridSpec(m=40, n=5, T=1.0)
    assert g.interior_node(np.float32(0.5)) == 20
    assert g.interior_node(np.int64(1) / 4) == 10
    assert g.time_indices([np.float32(1.0), np.float64(0.4)]).tolist() == [5, 2]
    assert g.time_indices(np.array([1.0], dtype=np.float32)).tolist() == [5]


@pytest.mark.parametrize(
    "kwargs,message",
    [
        (dict(m=2, n=5, T=1.0), "m must be an integer >= 3"),
        (dict(m=4.0, n=5, T=1.0), "m must be an integer >= 3"),
        (dict(m=4, n=0, T=1.0), "n must be an integer >= 1"),
        (dict(m=4, n=5, T=0.0), "T must be a positive finite number"),
        (dict(m=4, n=5, T=math.inf), "T must be a positive finite number"),
        (dict(m=40, n=True, T=100.0), "n must be an integer >= 1"),
        (dict(m=4, n=5, T=True), "T must be a positive finite number"),
        (dict(m=10**400, n=200, T=100.0), "m is too large for a float"),
        (dict(m=40, n=10**400, T=100.0), "n is too large for a float"),
        # Each count is checked whole before the next.
        (dict(m=10**400, n=0, T=100.0), "m is too large for a float"),
    ],
)
def test_grid_validation(kwargs, message):
    with pytest.raises(GridError, match=re.escape(message)):
        GridSpec(**kwargs)


# ---------------------------------------------------------------------------
# SolutionGrid / ObservationSeries


def test_solution_grid_shape_check():
    g = GridSpec(m=3, n=2, T=1.0)
    ok = np.zeros((4, 3))
    with pytest.raises(GridError, match="shape"):
        SolutionGrid(u1=ok, u2=np.zeros((4, 4)), grid=g)


def test_boundary_residual_zero_on_consistent_fields():
    g = GridSpec(m=3, n=3, T=1.0)
    u1 = np.zeros((4, 4))
    u2 = np.zeros((4, 4))
    u1[0, 1:] = 2.0          # inlet column, constant after t=0
    u1[1:, 1:] = 0.5         # interior + reflected outflow rows equal
    u2[1:, 1:] = 0.25
    sol = SolutionGrid(u1=u1, u2=u2, grid=g)
    assert sol.boundary_residual() == 0.0
    sol.u1[3, 2] += 1e-3     # break one reflection identity
    assert sol.boundary_residual() == pytest.approx(1e-3)


def test_observation_series_validation():
    with pytest.raises(ValidationError, match="strictly increasing"):
        ObservationSeries(x0=0.5, times=[1.0, 1.0], values=[0.1, 0.2])
    with pytest.raises(ValidationError, match="strictly increasing"):
        ObservationSeries(x0=0.5, times=[0.0, 1.0], values=[0.1, 0.2])
    with pytest.raises(ValidationError, match="finite"):
        ObservationSeries(x0=0.5, times=[1.0, 2.0], values=[0.1, math.nan])
    with pytest.raises(ValidationError, match="equal length"):
        ObservationSeries(x0=0.5, times=[1.0, 2.0], values=[0.1])
    with pytest.raises(ValidationError, match="nonnegative"):
        ObservationSeries(x0=0.5, times=[1.0], values=[0.1], noise_level=-0.1)
    for level in (math.nan, math.inf, "a", None, True, [0.1]):
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            ObservationSeries(x0=0.5, times=[1.0], values=[0.1], noise_level=level)
    with pytest.raises(ValidationError, match="at least one sample"):
        ObservationSeries(x0=0.5, times=[], values=[])
    for times in ([1.0, math.nan], [math.nan, 1.0], [1.0, math.inf], [-math.inf, 1.0]):
        with pytest.raises(ValidationError, match="times must be finite"):
            ObservationSeries(x0=0.5, times=times, values=[0.1, 0.2])
    # Only numbers: float() would parse the text and take a bool for 1.
    for bad in (["1.0"], [b"1"], np.array([True])):
        with pytest.raises(ValidationError, match="times must be finite"):
            ObservationSeries(x0=0.5, times=bad, values=[0.1])
        with pytest.raises(ValidationError, match="observation values must be finite"):
            ObservationSeries(x0=0.5, times=[1.0], values=bad)
    for x0 in (math.nan, math.inf, -math.inf, 0.0, 1.0, -0.5, True):
        with pytest.raises(ValidationError, match=re.escape(f"inside (0, 1), got {x0!r}")):
            ObservationSeries(x0=x0, times=[1.0], values=[0.1])
    # The sidecar's seed is an integer or null: any other seed could be
    # written by write_observation but not read back.
    for seed in ("x", 1.5, True, np.int64(7), [7]):
        with pytest.raises(ValidationError, match=re.escape(f"integer or None, got {seed!r}")):
            ObservationSeries(x0=0.5, times=[1.0], values=[0.1], seed=seed)
    obs = ObservationSeries(x0=0.5, times=[1.0, 2.0, 3.0], values=[0.1, 0.2, 0.3])
    assert len(obs) == 3 and obs.noise_level == 0.0 and obs.seed is None


def test_admissible_draws_all_validate():
    rng = np.random.default_rng(0)
    for _ in range(200):
        validate_params(admissible_draw(rng))
