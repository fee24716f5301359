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

import numpy as np
import pytest

from fracmim import (
    ContourQuadrature,
    ModelParams,
    QuadratureError,
    ValidationError,
    invert_at,
    invert_with_error,
)
from fracmim.laplace import (
    coeff_b,
    invert_transform,
    laplace_coefficients,
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


# ---------------------------------------------------------------------------
# coeff_b


def test_coeff_b_static_limit(bench_params):
    # s -> 0+ limit: -omega - lam + omega^2/(omega + mu) = -0.14375.
    assert coeff_b(1e-30, bench_params).real == pytest.approx(-0.14375, abs=1e-6)


def test_coeff_b_at_one_ignores_orders(bench_params):
    p = bench_params
    expected = -p.beta * p.R1 - p.omega - p.lam + p.omega**2 / (
        (1.0 - p.beta) * p.R2 + p.omega + p.mu
    )
    assert coeff_b(1.0, p) == pytest.approx(expected, rel=1e-15)
    assert coeff_b(1.0, p.with_orders(0.1, 0.9)) == coeff_b(1.0, p)


def test_coeff_b_dominated_by_mobile_power(bench_params):
    # at s = 1000 the -beta*R1*s^alpha term alone is below -251
    assert coeff_b(1000.0, bench_params).real < -251.0


def test_coeff_b_negative_real_part_on_right_half_plane():
    rng = np.random.default_rng(5)
    for _ in range(300):
        p = admissible_draw(rng)
        s = _frequency_draw(rng)
        assert coeff_b(s, p).real < 0.0


# ---------------------------------------------------------------------------
# laplace_coefficients: root and boundary-fit identities


def test_root_and_fit_identities_over_draws():
    # >= 1000 draws covering the ray, the Bromwich line, and a right-half
    # plane box: root signs, both Vieta identities, the inlet value and
    # the reflecting condition, all in well-scaled relative terms.
    rng = np.random.default_rng(12)
    for _ in range(1000):
        p = admissible_draw(rng)
        s = _frequency_draw(rng)
        co = laplace_coefficients(s, p)
        assert co.eta1.real > 0.0 > co.eta2.real
        scale = abs(co.eta1) + abs(co.eta2)
        assert abs(co.eta1 + co.eta2 - 1.0 / co.a) <= 1e-10 * scale
        assert abs(co.eta1 * co.eta2 - co.b / co.a) <= 1e-10 * abs(co.b / co.a)
        # inlet: c1 + c2 = 1/s
        assert abs(co.c1 + co.c2 - 1.0 / s) <= 1e-10 * abs(1.0 / s)
        # outflow: c1 eta1 e^{eta1} + c2 eta2 e^{eta2} = 0, tested in the
        # e^{eta1}-factored form so large roots cannot overflow
        g = cmath.exp(co.eta2 - co.eta1)
        t1 = co.c1 * co.eta1
        t2 = co.c2 * co.eta2 * g
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
    with pytest.raises(ValidationError, match="branch cut"):
        laplace_profile(0.5, -1.0, bench_params)
    with pytest.raises(ValidationError, match="branch cut"):
        laplace_profile(0.5, 0.0, bench_params)
    with pytest.raises(ValidationError, match="branch cut"):
        coeff_b(complex(-2.0, 0.0), bench_params)


def test_profile_large_frequency_no_overflow(bench_params):
    # exponents are pre-factored; |s| up to 1e8 must stay finite
    for s in (1e6, 1e8, complex(1.0, 1e8)):
        u1, u2 = laplace_profile(0.7, s, bench_params)
        assert cmath.isfinite(u1) and cmath.isfinite(u2)


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
    with pytest.raises(ValidationError, match="nodes"):
        ContourQuadrature(nodes=7)
    # the first doubling of 33 nodes would pass the 64-node cap
    with pytest.raises(ValidationError, match=r"nodes must be an integer in \[8, 32\]"):
        ContourQuadrature(nodes=33)
    with pytest.raises(ValidationError, match="tolerance"):
        ContourQuadrature(tolerance=0.0)
    with pytest.raises(ValidationError, match="tolerance"):
        ContourQuadrature(tolerance=0.05)


def test_invert_constant_pair():
    assert invert_transform(lambda s: 1.0 / s, 1.0) == pytest.approx(1.0, rel=1e-6)


def test_invert_exponential_pair():
    for a in (0.3, 0.7):
        for t in (0.5, 1.0, 5.0):
            got = invert_transform(lambda s: 1.0 / (s + a), t)
            assert got == pytest.approx(math.exp(-a * t), rel=1e-6)


def test_invert_mittag_leffler_pair():
    from oracles import mittag_leffler

    alpha = 0.8
    for t in (0.5, 1.0, 5.0):
        got = invert_transform(lambda s: s ** (alpha - 1.0) / (s**alpha + 1.0), t)
        assert got == pytest.approx(mittag_leffler(alpha, -(t**alpha)), rel=1e-6)


def test_invert_rejects_bad_time():
    with pytest.raises(ValidationError, match="positive finite time"):
        invert_transform(lambda s: 1.0 / s, 0.0)
    with pytest.raises(ValidationError, match="positive finite time"):
        invert_transform(lambda s: 1.0 / s, math.inf)


def test_invert_reports_non_convergence():
    # a transform-shaped function with no decaying inverse: the doubling
    # estimates keep disagreeing until the node cap trips
    with pytest.raises(QuadratureError, match="did not converge"):
        invert_transform(lambda s: math.sin(1e6 * abs(s)), 1.0)


def test_invert_with_error_consistency(bench_params):
    u1, u2, err = invert_with_error(0.5, 50.0, bench_params)
    assert 0.0 <= err <= ContourQuadrature().tolerance
    assert invert_at(0.5, 50.0, bench_params) == (u1, u2)
    assert 0.0 < u2 < u1 < 1.0


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
