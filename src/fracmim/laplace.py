"""Closed-form Laplace-domain solution and its numerical inversion.

The transformed mobile equation is a constant-coefficient two-point
boundary value problem in x whose solution is a combination of two
exponentials.  This module evaluates that closed form (safely, without
overflowing exponentials) at a scalar frequency or a numpy array of them,
and inverts it back to the time domain with a deformed-contour
(Talbot-type) quadrature at 16 and 32 nodes, whose difference is the
error estimate.

The contour depends on t only through s = s_unit / t, and its weights
not at all, so both node sets are module constants built at import.  A
point is the in-place closed form of `laplace_profile` on all 48 nodes
(about 36 of its 50 us on a 2-CPU VM), one product with the weights and
two numpy sums; the error estimate is finished on Python floats.

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


# Both contours at t = 1 as one node and one weight array, coarse first.
_S_UNIT, _W_UNIT = map(np.concatenate, zip(_unit_contour(_NODES), _unit_contour(2 * _NODES)))

# The times a contour point is evaluated at.  Its nodes are _S_UNIT / t,
# and |_S_UNIT| runs from 6.4 to about 397.4.  At small t the largest
# intermediate of the closed form is the boundary fit s (eta1 - eta2
# e^{eta2 - eta1}), about sqrt(P beta R1) |s|^(1 + alpha/2), and |s|^1.5
# stays below 8e303 for t >= 1e-200.  At large t the transform is about
# 1/s, up to t / 6.4, and a term multiplies it by a weight of up to 1.4e5,
# which stays below 2.2e304 for t <= 1e300.  Both ends leave a factor of
# 1e4 below the largest double.  Beyond them points overflow (on the
# builtin problems t = 1e-250 away from the inlet for alpha = 0.8 and 0.75,
# t = 1e307 everywhere), so they are refused before any evaluation.
_TIMES = (1e-200, 1e300)


def _time_in_range(t) -> bool:
    return _is_finite(t) and _TIMES[0] <= t <= _TIMES[1]


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
    if np.count_nonzero((s.imag == 0.0) & (s.real <= 0.0)):
        raise ValidationError("s must lie off the branch cut (the closed negative real axis)")
    return s


def _position(x) -> float:
    if not (_is_number(x) and 0.0 <= x <= 1.0):
        raise ValidationError("x must lie in [0,1]")
    return x


def _closed_form(x: float, s: np.ndarray, p: ModelParams) -> np.ndarray:
    """(u1_hat, u2_hat) at x as the rows of one array, at frequencies off the cut.

    Runs in place, in the operation order of the plain formula, so it
    keeps that formula's bits.  No complex product of two arrays may write
    into an operand: numpy runs that through another loop, which moved
    scalar calls off their array node by an ulp.
    """
    out = np.empty((2, *s.shape), complex)
    u1, u2 = out
    # s^gamma and s^alpha: numpy's s**q for a real non-integer q is the C
    # library's cpow, exp(q log s), except at 0.5, where numpy 2 takes a sqrt.
    log_s = np.log(s)
    denom, root = (s**q if q == 0.5 else np.exp(log_s * q) for q in (p.gamma, p.alpha))
    # denom = (1-beta) R2 s^gamma + omega + mu, and u2_hat = omega u1_hat / denom
    denom *= (1.0 - p.beta) * p.R2
    denom += p.omega
    denom += p.mu
    if x == 0.0:
        # bit-equal to Python's 1.0 / complex(s), which numpy's divide is not
        np.reciprocal(s, out=u1)
    else:
        # a eta^2 - eta + b = 0 (a = 1/P), b = -beta R1 s^alpha - omega - lam
        # + omega^2 / denom: root goes s^alpha, b, sqrt(1 - 4ab), and eta =
        # (1 +- root) / 2a lives in the rows of the result until u1_hat.
        a = 1.0 / p.P
        root *= -p.beta * p.R1
        root -= p.omega
        root -= p.lam
        root += np.divide(p.omega**2, denom, out=log_s)
        root *= 4.0 * a
        np.sqrt(np.subtract(1.0, root, out=root), out=root)
        eta1, eta2 = u1, u2
        np.add(1.0, root, out=eta1)
        np.subtract(1.0, root, out=eta2)
        out /= 2.0 * a
        # u1_hat = c1 e^{eta1 x} + c2 e^{eta2 x} with c1 + c2 = 1/s (inlet)
        # and c1 eta1 e^{eta1} + c2 eta2 e^{eta2} = 0 (outflow); divided
        # through by e^{eta1}, c2 = eta1 / (s (eta1 - eta2 e^{eta2 - eta1})).
        g = np.exp(np.subtract(eta2, eta1, out=log_s), out=log_s)
        fit = np.multiply(eta2, g, out=root)
        np.subtract(eta1, fit, out=fit)
        fit = np.multiply(s, fit, out=g)
        if np.count_nonzero(fit) < fit.size:
            bad = complex(s[fit == 0][0])
            raise QuadratureError(f"degenerate boundary-fit system at s={bad!r}")
        # c1 = -c2 (eta2/eta1) e^{eta2 - eta1}, so u1_hat = c2 (e^{eta2 x}
        # - (eta2/eta1) e^{eta1 (x-1) + eta2}); Re(eta1 (x-1)) <= 0 and
        # Re(eta2) <= P/2, so both exponents stay bounded.
        c2 = np.divide(eta1, fit, out=fit)
        ratio = np.divide(eta2, eta1, out=root)
        eta1 *= x - 1.0
        eta1 += eta2
        eta2 *= x
        np.exp(out, out=out)
        far, near = eta1, eta2
        near -= ratio * far
        np.multiply(c2, near, out=u1)
    np.multiply(p.omega, u1, out=u2)
    u2 /= denom
    return out


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
    u1, u2 = _closed_form(_position(x), _frequencies(s), p)
    return (u1[0], u2[0]) if np.ndim(s) == 0 else (u1, u2)


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


# The quadrature settings of a call that passes none.
_DEFAULT_QUADRATURE = ContourQuadrature()


def _invert(
    evaluate: Callable[[np.ndarray], np.ndarray], t: float, q: ContourQuadrature | None
) -> tuple[list[float], float]:
    """The 32-node sums and their largest relative move from the 16-node sums.

    ``evaluate`` maps the 48 contour nodes to transform values with the
    nodes on the last axis; the sums come back as one Python float per
    component, in C order.
    """
    if not _time_in_range(t):
        if not (_is_finite(t) and t > 0):
            raise ValidationError("t must be a positive finite time")
        raise ValidationError(
            f"t={t!r} lies outside the contour's time range [{_TIMES[0]:g}, {_TIMES[1]:g}]"
        )
    terms = (evaluate(_S_UNIT / t) * _W_UNIT).real.reshape(-1, _S_UNIT.size)
    # numpy sums along the node axis, as it would a lone component; the
    # rest are single IEEE operations, the same on Python floats.
    fine = [f / t for f in np.add.reduce(terms[:, _NODES:], axis=1).tolist()]
    coarse = np.add.reduce(terms[:, :_NODES], axis=1).tolist()
    moves = [abs(f - c / t) for f, c in zip(fine, coarse)]
    spread = sum(moves)  # NaN when a move is, which max() drops unless it comes first
    err = float((max(moves) if spread == spread else spread) / max(*map(abs, fine), _SCALE_FLOOR))
    q = q or _DEFAULT_QUADRATURE
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
    # No node _S_UNIT / t is tested for the cut: the real ones, 6.4 / t and 12.8 / t, are
    # positive, and the rest have Im >= 1.26 / t > 0.
    (u1, u2), err = _invert(lambda nodes: _closed_form(_position(x), nodes, p), t, q)
    return float(u1), float(u2), err
