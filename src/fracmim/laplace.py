"""Closed-form Laplace-domain solution and its numerical inversion.

The transformed mobile equation is a constant-coefficient two-point
boundary value problem in x whose solution is a combination of two
exponentials.  This module evaluates that closed form (safely, without
overflowing exponentials) at a scalar frequency or a numpy array of them,
and inverts it back to the time domain with a deformed-contour
(Talbot-type) quadrature at 16 and 32 nodes, whose difference is the
error estimate.

The contour depends on t only through s = s_unit / t, and its weights not
at all, so both node sets are module constants built at import.  One
inversion point is one array evaluation of the closed form on all 48
nodes and two weighted sums.

Everything here is independent of the finite-difference solver; the two
routes are compared against each other by the acceptance suite and must
never be collapsed into one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import QuadratureError, ValidationError
from .model import ModelParams, _is_finite, _is_number, _numbers, validate_params

__all__ = [
    "ContourQuadrature",
    "laplace_profile",
    "invert_at",
    "invert_with_error",
]

# The contour is summed at _NODES and 2*_NODES nodes.  Roundoff grows with
# the leading contour weight exp(2*nodes/5): on the builtin problems the
# 32-node sum is within 2e-11 of 40-digit values, a 48-node sum off by 1e-8.
_NODES = 16


def _unit_contour(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Talbot nodes and weights at t = 1, on the upper half contour.

    Contour s(theta) = r*theta*(cot(theta) + i), theta in [0, pi), r =
    2*nodes/5.  At time t the nodes are s/t and the weights
    e^{t s}(1 + i sigma) do not change, so f(t) = Re(sum w f(s/t)) / t.
    Conjugate symmetry of the transform folds the two halves into twice
    the real part (the theta = 0 node, on the real axis, is counted
    once), so the imaginary residue is identically zero by construction.
    """
    r = 2.0 * nodes / 5.0
    theta = np.arange(1, nodes) * (math.pi / nodes)
    cot = np.cos(theta) / np.sin(theta)
    sigma = theta + (theta * cot - 1.0) * cot
    s = np.concatenate(([r], r * theta * (cot + 1j)))
    weights = np.exp(s) * np.concatenate(([0.5], 1.0 + 1j * sigma)) * (r / nodes)
    return s, weights


# Both contours at t = 1, as one node array: the coarse nodes first.
_S_COARSE, _W_COARSE = _unit_contour(_NODES)
_S_FINE, _W_FINE = _unit_contour(2 * _NODES)
_S_UNIT = np.concatenate((_S_COARSE, _S_FINE))

# Relative-error floor: concentrations are normalized to an O(1) inlet
# value, so differences are measured against at least this scale to keep
# near-zero samples (early times far from the inlet) from tripping the
# convergence check on pure roundoff.
_SCALE_FLOOR = 1e-3


def _frequencies(s) -> np.ndarray:
    """`s` as a complex array of at least one dimension, checked off the cut.

    A scalar becomes a one-element array: numpy's complex scalars
    multiply with other roundoff than its array loops, and working on
    arrays keeps a scalar call bit-equal to the same node in an array.
    """
    s = np.atleast_1d(_numbers(s, "s must be a number or an array of numbers", dtype=complex))
    if ((s.imag == 0.0) & (s.real <= 0.0)).any():
        raise ValidationError(
            "s must lie off the branch cut (the closed negative real axis)"
        )
    return s


def _like(s, v: np.ndarray):
    """``v`` shaped like the frequency argument ``s``: a scalar for a scalar."""
    return v[0] if np.ndim(s) == 0 else v


def _coeff_b(s: np.ndarray, p: ModelParams, denom: np.ndarray) -> np.ndarray:
    """Zeroth-order coefficient b(s) of the transformed mobile equation.

    ``denom`` is :func:`_immobile_denom` at ``s``.  Principal branches of
    the fractional powers; Re b < 0 on Re s > 0.
    """
    return -p.beta * p.R1 * s**p.alpha - p.omega - p.lam + p.omega**2 / denom


def _immobile_denom(s: np.ndarray, p: ModelParams) -> np.ndarray:
    # (1-beta) R2 s^gamma + omega + mu: u2_hat = omega u1_hat / this.
    return (1.0 - p.beta) * p.R2 * s**p.gamma + p.omega + p.mu


def _roots_and_fit(s: np.ndarray, p: ModelParams, denom: np.ndarray) -> tuple[np.ndarray, ...]:
    """b, eta1, eta2, c1 and c2 at frequencies already checked off the cut.

    ``denom`` is :func:`_immobile_denom` at ``s``.

    a*eta^2 - eta + b = 0 (a = 1/P) with Re(eta1) >= Re(eta2); c1 + c2 =
    1/s (inlet) and c1*eta1*e^eta1 + c2*eta2*e^eta2 = 0 (outflow).
    """
    a = 1.0 / p.P
    b = _coeff_b(s, p, denom)
    root = np.sqrt(1.0 - 4.0 * a * b)
    eta1 = (1.0 + root) / (2.0 * a)
    eta2 = (1.0 - root) / (2.0 * a)
    # c1 = -eta2 e^{eta2} / (s (eta1 e^{eta1} - eta2 e^{eta2})), divided
    # through by e^{eta1}; g is bounded because Re(eta2 - eta1) <= 0.
    g = np.exp(eta2 - eta1)
    denom = s * (eta1 - eta2 * g)
    if not denom.all():
        raise QuadratureError(
            f"degenerate boundary-fit system at s={complex(s[denom == 0][0])!r}"
        )
    return b, eta1, eta2, -eta2 * g / denom, eta1 / denom


def laplace_profile(x: float, s, p: ModelParams) -> tuple:
    """Transformed concentrations (u1_hat, u2_hat) at position x.

    ``s`` is a scalar frequency or an array of them; each result has its
    shape.  Satisfies u1_hat(0) = 1/s exactly (short-circuited, since the
    fitted combination reproduces it only to roundoff) and the reflecting
    condition d/dx u1_hat(1) = 0 analytically.  The two-exponential
    combination is evaluated in a factored form whose exponents all have
    real part bounded by a parameter-dependent constant, so no
    intermediate can overflow for any |s|.
    """
    if not (_is_number(x) and 0.0 <= x <= 1.0):
        raise ValidationError("x must lie in [0,1]")
    z = _frequencies(s)
    denom = _immobile_denom(z, p)
    if x == 0.0:
        # bit-equal to Python's 1.0 / complex(s), which numpy's divide is not
        u1 = np.reciprocal(z)
    else:
        _, eta1, eta2, _, c2 = _roots_and_fit(z, p, denom)
        # u1_hat = c1 e^{eta1 x} + c2 e^{eta2 x}, and c1 = -c2 (eta2/eta1)
        # e^{eta2 - eta1}, so u1_hat = c2 (e^{eta2 x} - (eta2/eta1)
        # e^{eta1 (x-1) + eta2});  Re(eta1 (x-1)) <= 0 and Re(eta2) <= P/2,
        # so both exponents stay bounded.
        u1 = c2 * (np.exp(eta2 * x) - eta2 / eta1 * np.exp(eta1 * (x - 1.0) + eta2))
    return _like(s, u1), _like(s, p.omega * u1 / denom)


@dataclass(frozen=True)
class ContourQuadrature:
    """Deformed-contour inversion settings.

    The result is the 32-node sum; the inversion fails when it differs
    from the 16-node sum by more than ``tolerance`` in relative terms.
    """

    tolerance: float = 1e-6

    def __post_init__(self):
        if not (_is_number(self.tolerance) and 0.0 < self.tolerance <= 1e-2):
            raise ValidationError("quadrature tolerance must lie in (0, 1e-2]")


def _invert(
    evaluate: Callable[[np.ndarray], np.ndarray], t: float, q: ContourQuadrature | None
) -> tuple[np.ndarray, float]:
    """The 32-node sum and its relative move from the 16-node sum.

    ``evaluate`` maps the 48 contour nodes to transform values with the
    nodes on the last axis.
    """
    q = q or ContourQuadrature()
    if not (_is_finite(t) and t > 0):
        raise ValidationError("t must be a positive finite time")
    f = evaluate(_S_UNIT / t)
    # Multiply and sum along the node axis, so that each component of a
    # stacked evaluation is summed exactly as a lone one would be.
    coarse = np.real(f[..., :_NODES] * _W_COARSE).sum(axis=-1) / t
    fine = np.real(f[..., _NODES:] * _W_FINE).sum(axis=-1) / t
    scale = max(float(np.abs(fine).max()), _SCALE_FLOOR)
    err = float(np.abs(fine - coarse).max()) / scale
    if not err <= q.tolerance:  # a NaN estimate fails too
        raise QuadratureError(
            f"inversion at t={t} did not converge: {_NODES} and {2 * _NODES} nodes "
            f"disagree by {err:.3e} > tolerance {q.tolerance:.3e}"
        )
    return fine, err


def invert_with_error(
    x: float, t: float, p: ModelParams, q: ContourQuadrature | None = None
) -> tuple[float, float, float]:
    """Invert both transformed concentrations at (x, t) with an error estimate.

    Returns (u1, u2, est_rel_err) where the estimate is the relative
    move from the 16- to the 32-node sum, measured component-wise against
    the 32-node values with an absolute floor at the 1e-3 concentration
    scale.  Both components come from one array evaluation of the
    closed form on all 48 nodes.
    """
    validate_params(p)
    value, err = _invert(lambda nodes: np.array(laplace_profile(x, nodes, p)), t, q)
    return float(value[0]), float(value[1]), err


def invert_at(
    x: float, t: float, p: ModelParams, q: ContourQuadrature | None = None
) -> tuple[float, float]:
    """Time-domain concentrations (u1, u2) at (x, t) from the closed form."""
    u1, u2, _ = invert_with_error(x, t, p, q)
    return u1, u2
