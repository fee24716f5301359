"""Implicit L1 finite-difference marching scheme for the coupled system.

One linear solve per time step with a fixed block matrix of order
2(m-1): both Caputo derivatives are discretized by the L1 rule at the
new time level, diffusion/advection of the mobile zone and the
zone-coupling terms are taken fully implicitly, and the inter-zone
coupling uses the average of the two spatial neighbours, which keeps
the block structure strictly diagonally dominant for every admissible
parameter set and step size.

Unknown ordering inside a step is mobile interior values first, then
immobile interior values: U = (u1_1..u1_{m-1}, u2_1..u2_{m-1}).

A complex order makes the constants, matrix and fields complex: that is
how the order recovery differentiates the march by a complex step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.special

from .errors import GridError, ParameterError, SolverError
from .model import (
    GridSpec,
    ModelParams,
    ObservationSeries,
    SolutionGrid,
    _is_number,
    l1_power_table,
    validate_params,
)

__all__ = [
    "SchemeConstants",
    "BlockSystem",
    "scheme_constants",
    "assemble_block_system",
    "solve_forward",
    "extract_observation",
]


@dataclass(frozen=True)
class SchemeConstants:
    """Positive coefficients of the implicit scheme on a given grid.

    ``ca`` and ``cg`` are the L1 scaling factors tau^order * Gamma(2-order)
    of the mobile and immobile derivative; the remaining letters are the
    matrix entries built from them (see :func:`scheme_constants`).
    """

    ca: float
    cg: float
    r1: float
    r2: float
    A: float
    B: float
    D: float
    E: float
    F: float

    def dominance_margins(self) -> tuple[float, float]:
        """Row-sum slack (diagonal minus off-diagonal mass) per block.

        Mobile rows: B - A - r1 - 2D = 1 + ca*lam-term; immobile rows:
        F - 2E = 1 + r2*mu-term.  Both exceed 1 for admissible inputs,
        which is what makes the marching matrix uniformly invertible.
        """
        return self.B - self.A - self.r1 - 2.0 * self.D, self.F - 2.0 * self.E


def _gamma_fn(x):
    # scipy's real gamma differs from math.gamma in the last bit on most
    # inputs, so it is kept to complex orders and real marches stay fixed.
    return scipy.special.gamma(x) if isinstance(x, complex) else math.gamma(x)


def scheme_constants(params: ModelParams, grid: GridSpec) -> SchemeConstants:
    """Evaluate the scheme coefficients for one parameter set and grid.

    With h = 1/m, tau = T/n, ca = tau^alpha * Gamma(2-alpha) and
    cg = tau^gamma * Gamma(2-gamma):

        r1 = ca / (P*beta*R1*h^2)        r2 = cg / ((1-beta)*R2)
        A  = ca / (beta*R1*h) + r1       D  = omega*ca / (2*beta*R1)
        E  = r2*omega / 2
        B  = 1 + A + r1 + 2D + ca*lam/(beta*R1)
        F  = 1 + 2E + r2*mu

    All nine values are strictly positive for admissible parameters.  A
    complex order makes the constants that depend on it complex.
    """
    h = grid.h
    tau = grid.tau
    ca = tau**params.alpha * _gamma_fn(2.0 - params.alpha)
    cg = tau**params.gamma * _gamma_fn(2.0 - params.gamma)
    br1 = params.beta * params.R1
    r1 = ca / (params.P * br1 * h * h)
    r2 = cg / ((1.0 - params.beta) * params.R2)
    A = ca / (br1 * h) + r1
    D = params.omega * ca / (2.0 * br1)
    E = r2 * params.omega / 2.0
    B = 1.0 + A + r1 + 2.0 * D + ca * params.lam / br1
    F = 1.0 + 2.0 * E + r2 * params.mu
    c = SchemeConstants(ca=ca, cg=cg, r1=r1, r2=r2, A=A, B=B, D=D, E=E, F=F)
    if not np.all(np.isfinite([ca, cg, r1, r2, A, B, D, E, F])):
        raise SolverError(
            f"scheme constants overflow on degenerate grid (h={h!r}, tau={tau!r})"
        )
    return c


@dataclass
class BlockSystem:
    """Assembled marching matrix with its unit-inlet forcing vector.

    ``matrix`` has order 2(m-1); ``boundary_forcing`` is the
    right-hand-side contribution of a unit inlet value, to be scaled by
    the actual inlet concentration at each step.
    """

    matrix: np.ndarray
    boundary_forcing: np.ndarray

    def dominance_margin(self) -> float:
        """Smallest diagonal dominance slack over all assembled rows."""
        d = np.abs(np.diag(self.matrix))
        off = np.sum(np.abs(self.matrix), axis=1) - d
        return float(np.min(d - off))


def assemble_block_system(c: SchemeConstants, m: int) -> BlockSystem:
    """Build the 2(m-1) x 2(m-1) step matrix and inlet forcing vector.

    Block layout (q = m-1 interior nodes per zone):

    * mobile-mobile: tridiagonal with sub-diagonal -A, diagonal B,
      super-diagonal -r1; the reflecting outflow folds the ghost value
      into the last diagonal, giving B - r1 there;
    * mobile-immobile: -D on both off-diagonals (neighbour average),
      zero diagonal, and the fold puts -D on the last diagonal;
    * immobile-mobile: same pattern with -E;
    * immobile-immobile: F times the identity.

    The forcing vector carries the inlet contributions +A and +E into
    the first row of each block; the immobile inlet value is zero so no
    coupling term enters.  Both arrays are complex when a constant is.
    """
    if not (isinstance(m, int) and m >= 3):
        raise GridError("m must be an integer >= 3")
    q = m - 1
    dtype = np.result_type(c.ca, c.cg)  # every other constant derives from these
    M = np.zeros((2 * q, 2 * q), dtype)

    i = np.arange(q)
    M[i, i] = c.B
    M[i[:-1], i[:-1] + 1] = -c.r1
    M[i[1:], i[1:] - 1] = -c.A
    M[q - 1, q - 1] = c.B - c.r1

    M[i[:-1], q + i[:-1] + 1] = -c.D
    M[i[1:], q + i[1:] - 1] = -c.D
    M[q - 1, 2 * q - 1] = -c.D

    M[q + i, q + i] = c.F
    M[q + i[:-1], i[:-1] + 1] = -c.E
    M[q + i[1:], i[1:] - 1] = -c.E
    M[2 * q - 1, q - 1] = -c.E

    forcing = np.zeros(2 * q, dtype)
    forcing[0] = c.A
    forcing[q] = c.E
    return BlockSystem(matrix=M, boundary_forcing=forcing)


def _validate_for_solve(params: ModelParams) -> None:
    # The march extends continuously to order 1 (classical limit used by
    # the cross-checks), so the order bounds are relaxed to (0, 1] here.
    for name in ("alpha", "gamma"):
        v = getattr(params, name)
        if not (_is_number(v) and 0.0 < v <= 1.0):
            raise ParameterError(f"{name} must lie in (0,1]")
    validate_params(params.with_orders(0.5, 0.5))


def solve_forward(params: ModelParams, grid: GridSpec, inlet: float = 1.0) -> SolutionGrid:
    """March the implicit scheme from zero initial data to time T.

    Side conditions: both zones start at zero, the mobile inlet value
    jumps to ``inlet`` for every positive time, the immobile inlet value
    stays zero, and the outflow boundary reflects (zero gradient) in
    both zones.

    Returns
    -------
    SolutionGrid
        Fields of shape (m+1, n+1), indexed [space, time].

    Raises
    ------
    ParameterError, GridError
        For inadmissible parameters or grids.
    SolverError
        If any computed value fails to be finite, reporting the first
        offending time step.
    """
    _validate_for_solve(params)
    if not (_is_number(inlet) and math.isfinite(inlet)):
        raise ParameterError("inlet must be a finite number")
    return _march(params, grid, inlet)


def _march(params: ModelParams, grid: GridSpec, inlet: float = 1.0) -> SolutionGrid:
    # solve_forward's march without its checks; complex orders give complex arrays.
    m, n = grid.m, grid.n
    q = m - 1

    system = assemble_block_system(scheme_constants(params, grid), m)
    lu, piv = scipy.linalg.lu_factor(system.matrix)

    pow1 = l1_power_table(params.alpha, n)
    pow2 = l1_power_table(params.gamma, n)

    dtype = system.matrix.dtype
    u1 = np.zeros((m + 1, n + 1), dtype)
    u2 = np.zeros((m + 1, n + 1), dtype)
    # Increment history (u^{j+1} - u^j) per interior node, filled as the
    # march proceeds; column j is consumed by every later step.
    du1 = np.zeros((q, n), dtype)
    du2 = np.zeros((q, n), dtype)

    rhs = np.empty(2 * q, dtype)
    for k in range(n):
        # L1 history weights w_j = (k+1-j)^e - (k-j)^e for j = 0..k-1.
        w1 = (pow1[2 : k + 2] - pow1[1 : k + 1])[::-1]
        w2 = (pow2[2 : k + 2] - pow2[1 : k + 1])[::-1]
        rhs[:q] = u1[1:m, k] - du1[:, :k] @ w1
        rhs[q:] = u2[1:m, k] - du2[:, :k] @ w2
        rhs += inlet * system.boundary_forcing

        sol = scipy.linalg.lu_solve((lu, piv), rhs)
        if not np.all(np.isfinite(sol)):
            raise SolverError(f"non-finite solution values at time step {k + 1}")

        u1[0, k + 1] = inlet
        u1[1:m, k + 1] = sol[:q]
        u1[m, k + 1] = sol[q - 1]
        u2[1:m, k + 1] = sol[q:]
        u2[m, k + 1] = sol[2 * q - 1]
        du1[:, k] = u1[1:m, k + 1] - u1[1:m, k]
        du2[:, k] = u2[1:m, k + 1] - u2[1:m, k]

    return SolutionGrid(u1=u1, u2=u2, grid=grid)


def extract_observation(
    solution: SolutionGrid,
    x0: float,
    times: np.ndarray | None = None,
    *,
    noise_level: float = 0.0,
    seed: int | None = None,
) -> ObservationSeries:
    """Read the mobile concentration at one interior grid node.

    ``x0`` must coincide with a spatial node strictly inside (0, 1); a
    misaligned point is rejected with the two nearest nodes named, since
    silently snapping would bias the downstream order recovery.  By
    default all positive grid times are returned; an explicit ``times``
    array must likewise align with grid times.
    """
    grid = solution.grid
    pos = x0 * grid.m
    i = int(round(pos))
    if abs(pos - i) > 1e-9 * grid.m:
        lo = math.floor(pos) * grid.h
        hi = math.ceil(pos) * grid.h
        raise GridError(
            f"x0={x0!r} is not a grid node; nearest nodes are {lo!r} and {hi!r}"
        )
    if not 1 <= i <= grid.m - 1:
        raise GridError(f"x0={x0!r} must be an interior node, inside (0,1)")

    if times is None:
        idx = np.arange(1, grid.n + 1)
    else:
        times = np.asarray(times, dtype=float)
        ratio = times / grid.tau
        idx = np.round(ratio).astype(int)
        if np.any(np.abs(ratio - idx) > 1e-9 * grid.n) or np.any(idx < 1) or np.any(idx > grid.n):
            bad = times[
                (np.abs(ratio - idx) > 1e-9 * grid.n) | (idx < 1) | (idx > grid.n)
            ]
            raise GridError(f"times not aligned with grid times: {bad[:3].tolist()}")
    return ObservationSeries(
        x0=i * grid.h,
        times=idx * grid.tau,
        values=solution.u1[i, idx].copy(),
        noise_level=noise_level,
        seed=seed,
    )
