"""Closed-form transform profile and the contour inversion.

The closed form is validated against its own defining algebra (root
identities, boundary conditions, sign and decay structure), and the
inversion against textbook transform pairs with an independent series
oracle for the Mittag-Leffler case.  None of these tests touch the
finite-difference route; the two routes meet only in the acceptance
suite.
"""

import cmath
import math
import re

import numpy as np
import pytest

from fracmim import (
    ContourQuadrature,
    ModelParams,
    QuadratureError,
    ValidationError,
    builtin_experiment,
    invert_at,
    invert_with_error,
)
from fracmim import laplace
from fracmim.laplace import (
    _S_UNIT,
    _coeff_b,
    _frequencies,
    _immobile_denom,
    _invert,
    _roots_and_fit,
    laplace_profile,
)
from conftest import BENCH_PARAMS, admissible_draw, bound_constant, real_s_profile


def _frequency_draw(rng: np.random.Generator) -> complex:
    """One frequency from the regions the inversion and the lemmas use."""
    kind = rng.integers(3)
    if kind == 0:  # positive real ray
        return complex(10.0 ** rng.uniform(-2, 4))
    if kind == 1:  # vertical line Re(s) = 1
        return complex(1.0, rng.uniform(-1e4, 1e4))
    return complex(rng.uniform(0.1, 10.0), rng.uniform(-1e3, 1e3))


def b_at(s, p: ModelParams) -> complex:
    """b(s) at one frequency, through the path the closed form runs."""
    z = _frequencies(s)
    return complex(_coeff_b(z, p, _immobile_denom(z, p))[0])


def invert_array(fbar, t: float) -> float:
    """The contour inversion of an array transform at time t."""
    return float(_invert(fbar, t, None)[0])


# ---------------------------------------------------------------------------
# b(s)


def test_coeff_b_static_limit(bench_params):
    # s -> 0+ limit: -omega - lam + omega^2/(omega + mu) = -0.14375.
    assert b_at(1e-30, bench_params).real == pytest.approx(-0.14375, abs=1e-6)


def test_coeff_b_at_one_ignores_orders(bench_params):
    p = bench_params
    expected = -p.beta * p.R1 - p.omega - p.lam + p.omega**2 / (
        (1.0 - p.beta) * p.R2 + p.omega + p.mu
    )
    assert b_at(1.0, p) == pytest.approx(expected, rel=1e-15)
    assert b_at(1.0, p.with_orders(0.1, 0.9)) == b_at(1.0, p)


def test_coeff_b_dominated_by_mobile_power(bench_params):
    # at s = 1000 the -beta*R1*s^alpha term alone is below -251
    assert b_at(1000.0, bench_params).real < -251.0


def test_coeff_b_negative_real_part_on_right_half_plane():
    rng = np.random.default_rng(5)
    for _ in range(300):
        p = admissible_draw(rng)
        s = _frequency_draw(rng)
        assert b_at(s, p).real < 0.0


# ---------------------------------------------------------------------------
# roots and boundary fit: identities


def test_root_and_fit_identities_over_draws():
    # >= 1000 draws covering the ray, the Bromwich line, and a right-half
    # plane box: root signs, both Vieta identities, the inlet value and
    # the reflecting condition, all in well-scaled relative terms.
    rng = np.random.default_rng(12)
    for _ in range(1000):
        p = admissible_draw(rng)
        s = _frequency_draw(rng)
        z = _frequencies(s)
        b, eta1, eta2, c1, c2 = (v[0] for v in _roots_and_fit(z, p, _immobile_denom(z, p)))
        a = 1.0 / p.P
        assert eta1.real > 0.0 > eta2.real
        scale = abs(eta1) + abs(eta2)
        assert abs(eta1 + eta2 - 1.0 / a) <= 1e-10 * scale
        assert abs(eta1 * eta2 - b / a) <= 1e-10 * abs(b / a)
        # inlet: c1 + c2 = 1/s
        assert abs(c1 + c2 - 1.0 / s) <= 1e-10 * abs(1.0 / s)
        # outflow: c1 eta1 e^{eta1} + c2 eta2 e^{eta2} = 0, tested in the
        # e^{eta1}-factored form so large roots cannot overflow
        g = cmath.exp(eta2 - eta1)
        t1 = c1 * eta1
        t2 = c2 * eta2 * g
        assert abs(t1 + t2) <= 1e-10 * max(abs(t1), abs(t2))


# ---------------------------------------------------------------------------
# laplace_profile


def test_profile_inlet_value_exact(bench_params):
    for s in (0.3, 2.0, 100.0, complex(1.0, 50.0)):
        u1, _ = laplace_profile(0.0, s, bench_params)
        assert u1 == 1.0 / complex(s)


def test_profile_real_ray_sign_and_decay(bench_params):
    # Lemma-style structure on the positive real axis: exactly real,
    # nonnegative, bounded by the inlet transform 1/s, in both zones.
    for s in np.logspace(-2, 4, 40):
        for x in np.linspace(0.0, 1.0, 9):
            u1, u2 = laplace_profile(float(x), complex(s), bench_params)
            assert u1.imag == 0.0 and u2.imag == 0.0
            assert -1e-15 <= u1.real <= (1.0 / s) * (1.0 + 1e-12)
            assert u2.real >= -1e-15


def test_profile_spot_grid(bench_params):
    for s in (0.1, 1.0, 10.0, 100.0):
        u1, _ = laplace_profile(0.5, complex(s), bench_params)
        assert u1.imag == 0.0
        assert 0.0 <= u1.real <= 1.0 / s


def test_profile_rejects_bad_inputs(bench_params):
    with pytest.raises(ValidationError, match="x must lie in"):
        laplace_profile(1.5, 1.0, bench_params)
    # bool is an int subclass; True must not be read as x = 1
    for x in (True, "0.5", None):
        with pytest.raises(ValidationError, match=re.escape("x must lie in [0,1]")):
            laplace_profile(x, 1.0, bench_params)
        with pytest.raises(ValidationError, match=re.escape("x must lie in [0,1]")):
            invert_with_error(x, 50.0, bench_params)
    with pytest.raises(ValidationError, match="branch cut"):
        laplace_profile(0.5, -1.0, bench_params)
    with pytest.raises(ValidationError, match="branch cut"):
        laplace_profile(0.5, 0.0, bench_params)
    with pytest.raises(ValidationError, match="branch cut"):
        b_at(complex(-2.0, 0.0), bench_params)


def test_profile_large_frequency_no_overflow(bench_params):
    # exponents are pre-factored; |s| up to 1e8 must stay finite
    for s in (1e6, 1e8, complex(1.0, 1e8)):
        u1, u2 = laplace_profile(0.7, s, bench_params)
        assert cmath.isfinite(u1) and cmath.isfinite(u2)


def test_profile_takes_arrays(bench_params):
    # An array of frequencies gives arrays of its shape that match the
    # scalar calls to roundoff; x = 0 gives exactly 1/s and the real ray
    # exactly real values, as the scalar calls do.
    rng = np.random.default_rng(3)
    s = np.array([_frequency_draw(rng) for _ in range(60)]).reshape(3, 4, 5)
    for x in (0.0, 0.3, 1.0):
        u1, u2 = laplace_profile(x, s, bench_params)
        assert u1.shape == u2.shape == s.shape
        for k, z in np.ndenumerate(s):
            v1, v2 = laplace_profile(x, complex(z), bench_params)
            assert abs(u1[k] - v1) <= 1e-14 * abs(v1) and abs(u2[k] - v2) <= 1e-14 * abs(v2)
    u1, _ = laplace_profile(0.0, s, bench_params)
    assert all(u1[k] == 1.0 / complex(z) for k, z in np.ndenumerate(s))
    ray = np.logspace(-2, 4, 40).astype(complex)
    for x in (0.0, 0.5, 1.0):
        u1, u2 = laplace_profile(x, ray, bench_params)
        assert np.all(u1.imag == 0.0) and np.all(u2.imag == 0.0)


def test_array_on_branch_cut_rejected(bench_params):
    for s in ([1.0, 2.0 + 1.0j, -3.0], [[0.5j, 0.0]], np.array([-1e-300 + 0j])):
        with pytest.raises(ValidationError, match="branch cut"):
            laplace_profile(0.5, np.asarray(s), bench_params)
        with pytest.raises(ValidationError, match="branch cut"):
            _frequencies(np.asarray(s))


@pytest.mark.parametrize(
    "s", ["1", ["1", "2+1j"], [True], [b"1"], 10**400],
    ids=["text", "text_array", "bool", "bytes", "huge_int"],
)
def test_frequencies_that_are_not_numbers_rejected(bench_params, s):
    # complex() would parse the text and take a bool for 1.
    with pytest.raises(ValidationError, match="s must be a number or an array of numbers"):
        laplace_profile(0.5, s, bench_params)


# ---------------------------------------------------------------------------
# bound_constant


def test_bound_constant_real_ray(bench_params):
    ray = np.logspace(-2, 4, 100).astype(complex)
    c = bound_constant(bench_params, ray)
    assert 1.0 <= c <= 1.0 + 1e-9  # supremum attained at x = 0


def test_bound_constant_vertical_line(bench_params):
    line = 1.0 + 1j * np.linspace(-1e4, 1e4, 201)
    c = bound_constant(bench_params, line)
    assert math.isfinite(c) and c <= 1.0 + 1e-9


def test_bound_constant_inlet_only_is_one(bench_params):
    sample = np.array([0.5 + 0j, 3.0 + 4.0j, 1000.0 + 0j])
    assert bound_constant(bench_params, sample, x_grid=np.array([0.0])) == 1.0


def test_bound_constant_rejects_empty(bench_params):
    with pytest.raises(ValidationError, match="nonempty"):
        bound_constant(bench_params, np.array([]))


# ---------------------------------------------------------------------------
# contour inversion


def test_quadrature_settings_validated():
    for bad in (0.0, 0.05, "1e-6", None, True):
        with pytest.raises(ValidationError, match="tolerance"):
            ContourQuadrature(tolerance=bad)


def test_invert_constant_pair():
    assert invert_array(lambda s: 1.0 / s, 1.0) == pytest.approx(1.0, rel=1e-6)


def test_invert_exponential_pair():
    for a in (0.3, 0.7):
        for t in (0.5, 1.0, 5.0):
            got = invert_array(lambda s: 1.0 / (s + a), t)
            assert got == pytest.approx(math.exp(-a * t), rel=1e-6)


def test_invert_mittag_leffler_pair():
    from oracles import mittag_leffler

    alpha = 0.8
    for t in (0.5, 1.0, 5.0):
        got = invert_array(lambda s: s ** (alpha - 1.0) / (s**alpha + 1.0), t)
        assert got == pytest.approx(mittag_leffler(alpha, -(t**alpha)), rel=1e-6)


def test_invert_rejects_bad_time(bench_params):
    with pytest.raises(ValidationError, match="positive finite time"):
        invert_array(lambda s: 1.0 / s, 0.0)
    with pytest.raises(ValidationError, match="positive finite time"):
        invert_array(lambda s: 1.0 / s, math.inf)
    # bool is an int subclass; True must not be read as t = 1
    with pytest.raises(ValidationError, match="positive finite time"):
        invert_array(lambda s: 1.0 / s, True)
    with pytest.raises(ValidationError, match="positive finite time"):
        invert_at(0.5, True, bench_params)


@pytest.mark.parametrize(
    "fbar",
    [
        lambda s: np.full(s.shape, np.nan),
        lambda s: np.where(s.imag > 0, complex(math.nan, 0.0), 1.0 / s),
    ],
    ids=["every-node", "upper-half-nodes"],
)
def test_invert_rejects_nan_transform(fbar):
    # a NaN sum makes the error estimate NaN, which must not pass the
    # tolerance test
    with pytest.raises(QuadratureError, match="did not converge"):
        invert_array(fbar, 1.0)


def test_invert_reports_non_convergence():
    # a transform-shaped function with no decaying inverse: the 16- and
    # 32-node sums disagree far beyond the tolerance
    with pytest.raises(QuadratureError, match="did not converge"):
        invert_array(lambda s: np.sin(1e6 * np.abs(s)), 1.0)


def test_invert_with_error_consistency(bench_params):
    u1, u2, err = invert_with_error(0.5, 50.0, bench_params)
    assert 0.0 <= err <= ContourQuadrature().tolerance
    assert invert_at(0.5, 50.0, bench_params) == (u1, u2)
    assert 0.0 < u2 < u1 < 1.0


def test_a_contour_point_is_one_evaluation_of_the_closed_form(bench_params, monkeypatch):
    # Both components and both node counts come from one array evaluation
    # on the 48 contour nodes at t, and perfbench's laplace.profile_calls
    # counts on it.
    calls = []

    def counted(x, s, p):
        calls.append((x, np.array(s), p))
        return laplace_profile(x, s, p)

    monkeypatch.setattr(laplace, "laplace_profile", counted)
    invert_with_error(0.5, 50.0, bench_params)
    assert len(calls) == 1
    x, nodes, p = calls[0]
    assert (x, p) == (0.5, bench_params)
    assert nodes.shape == (48,) and np.array_equal(nodes, _S_UNIT / 50.0)


def test_invert_with_error_matches_scalar_callable(bench_params):
    # the array evaluation and a node-by-node scalar evaluation share one sum
    def node_by_node(x):
        return lambda nodes: np.array(
            [laplace_profile(x, s, bench_params)[0] for s in nodes.tolist()], dtype=complex
        )

    for x in (0.0, 0.25, 1.0):
        for t in (0.5, 5.0, 100.0):
            u1, _, _ = invert_with_error(x, t, bench_params)
            ref = invert_array(node_by_node(x), t)
            assert abs(u1 - ref) <= 1e-12 * max(abs(ref), 1e-3), (x, t, u1 - ref)


# u1 at t = 0.5, 5, 50, 100 for each builtin problem and x, cut to 17
# decimals from a 40-digit inversion of the same closed form (mpmath 1.3):
#
#   mp.mp.dps = 40
#   P, R1, R2, beta, om, lam, mu, al, ga = map(mp.mpf, (p.P, ..., p.gamma))
#   x = mp.mpf(x)
#   def fbar(s):
#       b = -beta*R1*s**al - om - lam + om**2/((1-beta)*R2*s**ga + om + mu)
#       a = 1/P
#       root = mp.sqrt(1 - 4*a*b)
#       e1, e2 = (1 + root)/(2*a), (1 - root)/(2*a)
#       if mp.re(e1) < mp.re(e2):
#           e1, e2 = e2, e1
#       num = e1*mp.exp(e2*x) - e2*mp.exp(e1*(x - 1) + e2)
#       return num/(s*(e1 - e2*mp.exp(e2 - e1)))
#   mp.invertlaplace(fbar, t, method="talbot")
#
# Repeating it at 60 digits moves no value by more than 1e-52.
_PROBE_TIMES = (0.5, 5.0, 50.0, 100.0)
_PROBE_U1 = {
    "ex51": {
        0.25: (0.74938325938310599, 0.87595300610526508, 0.91442660046093139, 0.92186382237210576),
        0.5: (0.52687292298257769, 0.76697538732449553, 0.83767276330903554, 0.85136378979240439),
        1.0: (0.27125239014666648, 0.63511178122574826, 0.74275996272750741, 0.76367215838847024),
    },
    "ex52": {
        0.25: (0.83238773938288763, 0.95351199319657828, 0.97587452465430881, 0.97749457945289102),
        0.5: (0.70077825038662627, 0.91636256613191562, 0.95684441900616166, 0.95974431149548683),
        1.0: (0.58158570792150030, 0.88210240595530855, 0.93946529852328493, 0.94353534643000250),
    },
    "ex53": {
        0.25: (0.84345659994216729, 0.90076464898970123, 0.92986934444749259, 0.93529522330540782),
        0.5: (0.72774492136723099, 0.82509602727035925, 0.87574522203429620, 0.88524425883403219),
        1.0: (0.62737417199209344, 0.75779623565119356, 0.82714567329272868, 0.84022159863480939),
    },
}


def test_invert_matches_forty_digit_values():
    for name, by_x in _PROBE_U1.items():
        p = builtin_experiment(name).params
        for x, refs in by_x.items():
            for t, ref in zip(_PROBE_TIMES, refs):
                u1, _, est = invert_with_error(x, t, p)
                assert abs(u1 - ref) <= 1e-10 * max(abs(ref), 1e-3), (name, x, t, u1 - ref)
                assert est <= 1e-10, (name, x, t, est)


def test_invert_at_monotone_in_time(bench_params):
    # continuous injection: the mobile breakthrough at a fixed point rises
    values = [invert_at(0.5, t, bench_params)[0] for t in (5.0, 10.0, 50.0, 100.0)]
    assert all(a < b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# real_s_profile


def test_real_s_profile_matches_complex_path(bench_params):
    v = real_s_profile(0.5, 10.0, (0.8, 0.25), bench_params)
    u1, _ = laplace_profile(0.5, complex(10.0), bench_params)
    assert v == u1.real
    assert 0.0 <= v <= 0.1


def test_real_s_profile_equal_orders_identical(bench_params):
    a = real_s_profile(0.5, 100.0, (0.6, 0.6), bench_params)
    b = real_s_profile(0.5, 100.0, (0.6, 0.6), bench_params)
    assert a == b


def test_real_s_profile_order_sensitivity_sign(bench_params):
    # raising the mobile order lowers the transform value at s = 100
    lo = real_s_profile(0.5, 100.0, (0.9, 0.25), bench_params)
    hi = real_s_profile(0.5, 100.0, (0.8, 0.25), bench_params)
    assert lo < hi


def test_real_s_profile_rejects_nonpositive_s(bench_params):
    with pytest.raises(ValidationError, match="positive real frequency"):
        real_s_profile(0.5, -1.0, (0.8, 0.25), bench_params)
