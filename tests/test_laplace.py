"""Closed-form transform profile and the contour inversion.

The closed form is validated against its own defining algebra (root
identities, boundary conditions, sign and decay structure), and the
inversion against textbook transform pairs with an independent series
oracle for the Mittag-Leffler case.  None of these tests touch the
finite-difference route; the two routes meet only in the acceptance
suite.
"""

import cmath
import dataclasses
import math
import re

import numpy as np
import pytest

from fracmim import (
    ContourQuadrature,
    ModelParams,
    ParameterError,
    QuadratureError,
    ValidationError,
    builtin_experiment,
    invert_with_error,
)
from fracmim import laplace
from fracmim.laplace import (
    _S_UNIT,
    _closed_form,
    _frequencies,
    _invert,
    laplace_profile,
)
from conftest import BENCH_PARAMS, admissible_draw, bound_constant, real_s_profile
from oracles import coeff_b, immobile_denom, plain_invert, plain_profile, roots_and_fit


def _frequency_draw(rng: np.random.Generator) -> complex:
    """One frequency from the regions the inversion and the lemmas use."""
    kind = rng.integers(3)
    if kind == 0:  # positive real ray
        return complex(10.0 ** rng.uniform(-2, 4))
    if kind == 1:  # vertical line Re(s) = 1
        return complex(1.0, rng.uniform(-1e4, 1e4))
    return complex(rng.uniform(0.1, 10.0), rng.uniform(-1e3, 1e3))


def _off_cut_draw(rng: np.random.Generator, size: int) -> np.ndarray:
    """Frequencies in every quadrant with |s| in [1e-3, 1e4], an eighth of
    them on the positive real ray."""
    s = 10.0 ** rng.uniform(-3, 4, size) * np.exp(1j * rng.uniform(-math.pi, math.pi, size))
    s[: size // 8] = np.abs(s[: size // 8])
    return s


def _bits(v) -> bytes:
    return np.asarray(v, dtype=complex).tobytes()


def b_at(s, p: ModelParams) -> complex:
    """b(s) at one frequency checked off the cut, by the plain formula."""
    z = _frequencies(s)
    return complex(coeff_b(z, p, immobile_denom(z, p))[0])


def invert_array(fbar, t: float) -> float:
    """The contour inversion of an array transform at time t."""
    return _invert(fbar, t, None)[0][0]


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
        b, eta1, eta2, c1, c2 = (v[0] for v in roots_and_fit(z, p, immobile_denom(z, p)))
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


def test_scalar_call_is_bit_equal_to_its_array_node(bench_params):
    # A complex product that writes into one of its operands takes another
    # numpy loop, which moves a scalar call off its array node by an ulp.
    rng = np.random.default_rng(28)
    s = _off_cut_draw(rng, 400)
    for x in (0.0, 0.3, 1.0):
        u1, u2 = laplace_profile(x, s, bench_params)
        for k, z in enumerate(s.tolist()):
            v1, v2 = laplace_profile(x, complex(z), bench_params)
            assert _bits(v1) == _bits(u1[k]) and _bits(v2) == _bits(u2[k]), (x, z)


def test_closed_form_keeps_the_plain_formula_bits():
    # The in-place evaluation from one complex log gives the bits of the
    # plain formula, whose powers are numpy's **, with an order of exactly
    # 0.5 (where numpy takes a square root) in two thirds of the draws.
    rng = np.random.default_rng(29)
    for draw in range(60):
        p = admissible_draw(rng)
        p = (p, p.with_orders(0.5, p.gamma), p.with_orders(p.alpha, 0.5))[draw % 3]
        s = _off_cut_draw(rng, 64)
        for x in (0.0, float(rng.uniform()), 1.0):
            got, want = laplace_profile(x, s, p), plain_profile(x, s, p)
            assert all(_bits(g) == _bits(w) for g, w in zip(got, want)), (draw, x)


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
        invert_with_error(0.5, True, bench_params)


@pytest.mark.parametrize(
    "fbar",
    [
        lambda s: np.full(s.shape, np.nan),
        lambda s: np.where(s.imag > 0, complex(math.nan, 0.0), 1.0 / s),
        lambda s: np.stack([1.0 / s, np.full(s.shape, np.nan)]),
    ],
    ids=["every-node", "upper-half-nodes", "second-component"],
)
def test_invert_rejects_nan_transform(fbar):
    # a NaN sum makes the error estimate NaN, which must not pass the
    # tolerance test, in whichever component it is
    with pytest.raises(QuadratureError, match="disagree by nan"):
        invert_array(fbar, 1.0)


def test_invert_reports_non_convergence():
    # a transform-shaped function with no decaying inverse: the 16- and
    # 32-node sums disagree far beyond the tolerance
    with pytest.raises(QuadratureError, match="did not converge"):
        invert_array(lambda s: np.sin(1e6 * np.abs(s)), 1.0)


def test_invert_with_error_consistency(bench_params):
    u1, u2, err = invert_with_error(0.5, 50.0, bench_params)
    assert 0.0 <= err <= ContourQuadrature().tolerance
    assert 0.0 < u2 < u1 < 1.0


@pytest.mark.parametrize("bad_t", [0.0, -1.0, math.nan, math.inf, True, "1", None])
@pytest.mark.parametrize("bad_x", [2.0, -0.1, math.nan, None])
def test_a_point_checks_params_then_time_then_position(bench_params, bad_t, bad_x):
    bad_p = dataclasses.replace(bench_params, alpha=1.5)
    with pytest.raises(ParameterError, match=re.escape("alpha must lie in (0,1)")):
        invert_with_error(bad_x, bad_t, bad_p)
    with pytest.raises(ValidationError, match="^t must be a positive finite time$"):
        invert_with_error(bad_x, bad_t, bench_params)
    with pytest.raises(ValidationError, match=re.escape("x must lie in [0,1]")):
        invert_with_error(bad_x, 1.0, bench_params)


def test_default_quadrature_is_built_once(bench_params, monkeypatch):
    # a call that passes no settings uses the defaults built at import
    want = invert_with_error(0.5, 50.0, bench_params, ContourQuadrature())
    monkeypatch.setattr(laplace, "ContourQuadrature", None)
    assert invert_with_error(0.5, 50.0, bench_params) == want


def test_a_contour_point_is_one_evaluation_of_the_closed_form(bench_params, monkeypatch):
    # Both components and both node counts come from one evaluation of the
    # closed form on the 48 contour nodes at t, the one laplace_profile runs.
    calls = []

    def counted(x, s, p):
        calls.append((x, np.array(s), p))
        return _closed_form(x, s, p)

    monkeypatch.setattr(laplace, "_closed_form", counted)
    invert_with_error(0.5, 50.0, bench_params)
    assert len(calls) == 1
    x, nodes, p = calls[0]
    assert (x, p) == (0.5, bench_params)
    assert nodes.shape == (48,) and np.array_equal(nodes, _S_UNIT / 50.0)
    laplace_profile(0.5, nodes, bench_params)
    assert len(calls) == 2 and np.array_equal(calls[1][1], nodes)


def _hex(values) -> list[str]:
    return [float.hex(v) for v in values]


def test_a_contour_point_keeps_the_plain_numpy_bits():
    # The point finishes on Python floats; numpy throughout gives the same
    # triple, value and estimate, bit for bit.
    for name in ("ex51", "ex52", "ex53"):
        p = builtin_experiment(name).params
        for x in (0.0, 0.25, 0.5, 0.75, 1.0):
            for t in (0.5 * k for k in range(1, 201)):
                assert _hex(invert_with_error(x, t, p)) == _hex(plain_invert(x, t, p)), (name, x, t)
    rng = np.random.default_rng(2029)
    for draw in range(50):
        p = admissible_draw(rng)
        x, t = float(rng.uniform()), float(10.0 ** rng.uniform(-0.3, 2.0))
        assert _hex(invert_with_error(x, t, p)) == _hex(plain_invert(x, t, p)), (draw, x, t)


def test_contour_nodes_never_touch_the_cut():
    # Why a point skips the cut test: the real nodes 6.4 / t and 12.8 / t
    # are positive and every other node has Im >= 1.26 / t, still 7e-309 at
    # the largest double; for subnormal t the nodes overflow to infinities,
    # with a NaN imaginary part on the real nodes, none of them on the cut.
    rng = np.random.default_rng(30)
    draws = np.ldexp(rng.uniform(1.0, 2.0, 10**5), rng.integers(-1074, 1024, 10**5))
    edges = [5e-324, 2.2e-308, 1e-300, 1.0, 1e300, 1.7976931348623157e308, 2**1023]
    with np.errstate(all="ignore"):
        for t in edges + draws.tolist():
            _frequencies(_S_UNIT / t)  # the check laplace_profile runs: raises on the cut


# Times far outside any experiment.  t = 5e-324, 1e-300 and 1.7e308 lie
# outside the contour's time range, where points overflow, and are refused
# before any evaluation; every other one gives a finite triple.
_EXTREME_TIMES = (5e-324, 1e-300, 1e-100, 1e-30, 1e-8, 1e30, 1e100, 1e300, 1.7e308)


@pytest.mark.parametrize("name", ["ex51", "ex52", "ex53"])
@pytest.mark.parametrize("x", [0.0, 0.5, 1.0])
def test_extreme_times_keep_their_outcome(name, x):
    p = builtin_experiment(name).params
    for t in _EXTREME_TIMES:
        if t in (5e-324, 1e-300, 1.7e308):
            with pytest.raises(ValidationError, match="outside the contour's time range"):
                invert_with_error(x, t, p)
        else:
            assert all(map(math.isfinite, invert_with_error(x, t, p))), t


# The ends of the contour's time range, and the doubles just beyond them.
_T_MIN, _T_MAX = 1e-200, 1e300
_BEYOND = (math.nextafter(_T_MIN, 0.0), 1e-250, 1e-300, math.nextafter(_T_MAX, math.inf), 1e307)


def _time_range_cases():
    rng = np.random.default_rng(33)
    cases = [pytest.param(builtin_experiment(name).params, x, id=f"{name}-{x}")
             for name in ("ex51", "ex52", "ex53") for x in (0.0, 0.25, 0.5, 1.0)]
    cases += [pytest.param(admissible_draw(rng), float(rng.uniform()), id=f"draw{i}")
              for i in range(20)]
    return cases


@pytest.mark.parametrize("p, x", _time_range_cases())
def test_contour_time_range_ends(p, x, monkeypatch):
    # Inside, a finite triple, with no RuntimeWarning (the suite makes one an
    # error); outside, the refusal, before the closed form is evaluated.
    assert laplace._TIMES == (_T_MIN, _T_MAX)
    for t in (_T_MIN, _T_MAX):
        assert all(map(math.isfinite, invert_with_error(x, t, p))), t

    def forbidden(*args):
        raise AssertionError("the closed form ran for a time outside the range")

    monkeypatch.setattr(laplace, "_closed_form", forbidden)
    for t in _BEYOND:
        with pytest.raises(ValidationError, match=re.escape(
            f"t={t!r} lies outside the contour's time range [1e-200, 1e+300]"
        )):
            invert_with_error(x, t, p)


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


def test_invert_with_error_monotone_in_time(bench_params):
    # continuous injection: the mobile breakthrough at a fixed point rises
    values = [invert_with_error(0.5, t, bench_params)[0] for t in (5.0, 10.0, 50.0, 100.0)]
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
