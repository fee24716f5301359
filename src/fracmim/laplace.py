"""Closed-form Laplace-domain solution and its numerical inversion.

The transformed mobile equation is a constant-coefficient two-point
boundary value problem in x whose solution is a combination of two
exponentials.  This module evaluates that closed form (safely, without
overflowing exponentials), inverts it back to the time domain with a
deformed-contour (Talbot-type) quadrature with node-doubling error
control.

Everything here is independent of the finite-difference solver; the two
routes are compared against each other by the acceptance suite and must
never be collapsed into one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import QuadratureError, ValidationError
from .model import ModelParams, validate_params

__all__ = [
    "LaplaceCoefficients",
    "ContourQuadrature",
    "coeff_b",
    "laplace_coefficients",
    "laplace_profile",
    "invert_transform",
    "invert_at",
    "invert_with_error",
]

# Node-doubling stops here: the leading contour weight grows like
# exp(2*nodes/5), so past ~64 nodes double-precision roundoff swamps the
# quadrature instead of refining it.
_MAX_NODES = 64

# Relative-error floor: concentrations are normalized to an O(1) inlet
# value, so differences are measured against at least this scale to keep
# near-zero samples (early times far from the inlet) from tripping the
# convergence check on pure roundoff.
_SCALE_FLOOR = 1e-3


def _check_branch(s: complex) -> complex:
    s = complex(s)
    if s.imag == 0.0 and s.real <= 0.0:
        raise ValidationError(
            "s must lie off the branch cut (the closed negative real axis)"
        )
    return s


def coeff_b(s: complex, p: ModelParams) -> complex:
    """Zeroth-order coefficient of the transformed mobile equation.

    b(s) = -beta*R1*s^alpha - omega - lam + omega^2 / ((1-beta)*R2*s^gamma
    + omega + mu), with principal branches of the fractional powers.  Has
    negative real part on the right half plane and extends analytically
    to the cut plane, which is what the deformed inversion contour uses.
    """
    s = _check_branch(s)
    denom = (1.0 - p.beta) * p.R2 * s**p.gamma + p.omega + p.mu
    return (
        -p.beta * p.R1 * s**p.alpha
        - p.omega
        - p.lam
        + p.omega**2 / denom
    )


@dataclass(frozen=True)
class LaplaceCoefficients:
    """Characteristic data of the transformed mobile equation at one s.

    ``a`` = 1/P multiplies the second derivative; ``b`` is the
    zeroth-order coefficient; ``eta1``/``eta2`` solve a*eta^2 - eta + b
    = 0 with Re(eta1) >= Re(eta2) (eta1 + eta2 = 1/a, eta1*eta2 = b/a);
    ``c1``/``c2`` fit the unit-step inlet and reflecting outflow:
    c1 + c2 = 1/s and c1*eta1*e^eta1 + c2*eta2*e^eta2 = 0.
    """

    s: complex
    a: float
    b: complex
    eta1: complex
    eta2: complex
    c1: complex
    c2: complex


def laplace_coefficients(s: complex, p: ModelParams) -> LaplaceCoefficients:
    """Evaluate roots and boundary-fit constants at one frequency.

    The square root takes its principal branch and the roots are ordered
    so Re(eta1) >= Re(eta2); on the right half plane this gives
    Re(eta1) > 0 > Re(eta2).  The fit constants are computed in a
    pre-factored form (every exponential argument has bounded real part)
    so large |s| cannot overflow.
    """
    s = _check_branch(s)
    a = 1.0 / p.P
    b = coeff_b(s, p)
    root = cmath.sqrt(1.0 - 4.0 * a * b)
    eta1 = (1.0 + root) / (2.0 * a)
    eta2 = (1.0 - root) / (2.0 * a)
    if eta1.real < eta2.real:
        eta1, eta2 = eta2, eta1
    # c1 = -eta2 e^{eta2} / (s (eta1 e^{eta1} - eta2 e^{eta2})), divided
    # through by e^{eta1}; g is bounded because Re(eta2 - eta1) <= 0.
    g = cmath.exp(eta2 - eta1)
    denom = s * (eta1 - eta2 * g)
    if denom == 0:
        raise QuadratureError(f"degenerate boundary-fit system at s={s!r}")
    c1 = -eta2 * g / denom
    c2 = eta1 / denom
    return LaplaceCoefficients(s=s, a=a, b=b, eta1=eta1, eta2=eta2, c1=c1, c2=c2)


def laplace_profile(x: float, s: complex, p: ModelParams) -> tuple[complex, complex]:
    """Transformed concentrations (u1_hat, u2_hat) at position x.

    Satisfies u1_hat(0) = 1/s exactly (short-circuited, since the fitted
    combination reproduces it only to roundoff) and the reflecting
    condition d/dx u1_hat(1) = 0 analytically.  The two-exponential
    combination is evaluated in a factored form whose exponents all have
    real part bounded by a parameter-dependent constant, so no
    intermediate can overflow for any |s|.
    """
    if not 0.0 <= x <= 1.0:
        raise ValidationError("x must lie in [0,1]")
    s = _check_branch(s)
    if x == 0.0:
        u1 = 1.0 / s
    else:
        co = laplace_coefficients(s, p)
        eta1, eta2 = co.eta1, co.eta2
        g = cmath.exp(eta2 - eta1)
        # u1_hat = (eta1 e^{eta2 x} - eta2 e^{eta1 (x-1) + eta2}) /
        #          (s (eta1 - eta2 g));  Re(eta1 (x-1)) <= 0 and
        #          Re(eta2) <= P/2, so both exponents stay bounded.
        num = eta1 * cmath.exp(eta2 * x) - eta2 * cmath.exp(eta1 * (x - 1.0) + eta2)
        u1 = num / (s * (eta1 - eta2 * g))
    u2 = p.omega * u1 / ((1.0 - p.beta) * p.R2 * s**p.gamma + p.omega + p.mu)
    return u1, u2


@dataclass(frozen=True)
class ContourQuadrature:
    """Deformed-contour inversion settings.

    ``nodes`` is the base node count M; the contour scale is r =
    2M/(5t), the standard choice for this contour family.  Convergence
    is declared when doubling the node count moves the result by at most
    ``tolerance`` in relative terms.  The first doubling already
    evaluates 2M nodes, so M is at most half the 64-node cap.
    """

    nodes: int = 24
    tolerance: float = 1e-6

    def __post_init__(self):
        if not (isinstance(self.nodes, int) and 8 <= self.nodes <= _MAX_NODES // 2):
            raise ValidationError(f"quadrature nodes must be an integer in [8, {_MAX_NODES // 2}]")
        if not (0.0 < self.tolerance <= 1e-2):
            raise ValidationError("quadrature tolerance must lie in (0, 1e-2]")


def _talbot(fbar: Callable[[complex], np.ndarray], t: float, nodes: int) -> np.ndarray:
    """Fixed deformed-contour sum with `nodes` points on the half contour.

    Contour s(theta) = (r/t)*theta*(cot(theta) + i), theta in (-pi, pi),
    r = 2*nodes/5; conjugate symmetry of the transform folds the two
    halves into twice the real part, so the imaginary residue of the
    inversion is identically zero by construction.
    """
    r = 2.0 * nodes / (5.0 * t)
    total = 0.5 * math.exp(r * t) * np.real(np.asarray(fbar(complex(r)), dtype=complex))
    for k in range(1, nodes):
        theta = k * math.pi / nodes
        cot = math.cos(theta) / math.sin(theta)
        s = r * theta * complex(cot, 1.0)
        sigma = theta + (theta * cot - 1.0) * cot
        weight = cmath.exp(t * s) * complex(1.0, sigma)
        total = total + np.real(weight * np.asarray(fbar(s), dtype=complex))
    return (r / nodes) * total


def _invert_vector(
    fbar: Callable[[complex], np.ndarray], t: float, q: ContourQuadrature
) -> tuple[np.ndarray, float]:
    if not (isinstance(t, (int, float)) and math.isfinite(t) and t > 0):
        raise ValidationError("t must be a positive finite time")
    nodes = q.nodes
    coarse = _talbot(fbar, t, nodes)
    while True:
        fine = _talbot(fbar, t, 2 * nodes)
        scale = max(float(np.max(np.abs(fine))), _SCALE_FLOOR)
        err = float(np.max(np.abs(fine - coarse))) / scale
        if err <= q.tolerance:
            return fine, err
        nodes *= 2
        coarse = fine
        if 2 * nodes > _MAX_NODES:
            raise QuadratureError(
                f"inversion at t={t} did not converge: node counts {nodes} and "
                f"{nodes // 2} disagree by {err:.3e} > tolerance {q.tolerance:.3e}"
            )


def invert_transform(
    fbar: Callable[[complex], complex], t: float, q: ContourQuadrature | None = None
) -> float:
    """Invert a scalar Laplace transform at time t.

    The transform must be analytic off the closed negative real axis and
    real-valued on the positive real axis (conjugate-symmetric), which
    every transform in this package is.

    Raises
    ------
    QuadratureError
        When successive node-count doublings disagree beyond tolerance
        before the roundoff-limited node cap is reached.
    """
    q = q or ContourQuadrature()
    value, _ = _invert_vector(lambda s: np.asarray(fbar(s), dtype=complex), t, q)
    return float(value)


def invert_with_error(
    x: float, t: float, p: ModelParams, q: ContourQuadrature | None = None
) -> tuple[float, float, float]:
    """Invert both transformed concentrations at (x, t) with an error estimate.

    Returns (u1, u2, est_rel_err) where the estimate is the relative
    move of the final node doubling, measured component-wise against the
    refined values with an absolute floor at the 1e-3 concentration
    scale.  Both components share one contour evaluation per node.
    """
    q = q or ContourQuadrature()
    validate_params(p)

    def pair(s: complex) -> np.ndarray:
        return np.asarray(laplace_profile(x, s, p), dtype=complex)

    value, err = _invert_vector(pair, t, q)
    return float(value[0]), float(value[1]), err


def invert_at(
    x: float, t: float, p: ModelParams, q: ContourQuadrature | None = None
) -> tuple[float, float]:
    """Time-domain concentrations (u1, u2) at (x, t) from the closed form."""
    u1, u2, _ = invert_with_error(x, t, p, q)
    return u1, u2
