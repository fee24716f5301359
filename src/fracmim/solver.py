"""Implicit L1 finite-difference marching scheme for the coupled system.

Each time step applies the inverse of one fixed block matrix of order
2(m-1): both Caputo derivatives are discretized by the L1 rule at the
new time level, diffusion/advection of the mobile zone and the
zone-coupling terms are taken fully implicitly, and the inter-zone
coupling uses the average of the two spatial neighbours, which keeps
the block structure strictly diagonally dominant for every admissible
parameter set and step size.

Unknown ordering inside a step is mobile interior values first, then
immobile interior values: U = (u1_1..u1_{m-1}, u2_1..u2_{m-1}).

The inverse of the step matrix is formed once per march and every step
applies it by one matrix product, so no step calls LAPACK.  Forming it
is safe: every row of the matrix has diagonal-dominance slack above 1,
so by Varah's bound the inverse has infinity norm below 1.  The L1
history weights are one difference of the power tables of both orders,
made by one broadcast power, read backwards.  Finiteness is checked
once, after the march, by one reduction; only a march that fails it is
searched for its first non-finite time step.

One march serves the forward solve and the order recovery.  The forward
solve advances the state alone.  The recovery also needs the state's
derivatives in both orders, which the same march advances together
with the state (forward-mode differentiation of the march itself, so
the derivatives are exact to roundoff).  The derivatives run one step
behind the state, so their coupling to the state is one more weighted
sum over the states, and the step's single product with the inverse
advances the state and both derivatives.

The march runs on the states, not on their increments: with zero
initial data, summing the L1 history by parts makes each step's
right-hand side one weighted sum over the states so far, weights
a[d] = w[d] - w[d+1], and the derivatives' coupling one more, weights
beta[d] = c[d+1] - c[d].  Every march splits these sums in blocks of
steps.  At the first step of a block, one matrix product writes every
step of the block its far row, the sum over the states before the block
plus the inlet forcing, into the state row the step will fill.  A step
then makes three numpy calls: one product over the states of its own
block, whose weights interleave a and beta so that the coupling lands on
the derivatives inside it, one add of its far row and one product with
the inverse, which overwrites that row.

A march allocates one state array, its weight band and, with tangents,
one block of the beta product; on the 40x200 sweep grid they stay on
glibc's heap from one march to the next (see ``_HISTORY_BLOCK``).
The set-up before the first step makes few numpy calls, since the order
recovery runs thousands of short marches: the step matrix is filled
through strided views of its diagonals, the band is copied from one
strided view of the reversed weights, and the digamma of the two orders
is evaluated on Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, ParameterError, SolverError
from .model import (
    GridSpec,
    ModelParams,
    ObservationSeries,
    SolutionGrid,
    _check_count,
    _is_finite,
    _is_number,
    validate_params,
)

__all__ = [
    "SchemeConstants",
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


def scheme_constants(params: ModelParams, grid: GridSpec) -> SchemeConstants:
    """Evaluate the scheme coefficients for one parameter set and grid.

    With h = 1/m, tau = T/n, ca = tau^alpha * Gamma(2-alpha) and
    cg = tau^gamma * Gamma(2-gamma):

        r1 = ca / (P*beta*R1*h^2)        r2 = cg / ((1-beta)*R2)
        A  = ca / (beta*R1*h) + r1       D  = omega*ca / (2*beta*R1)
        E  = r2*omega / 2
        B  = 1 + A + r1 + 2D + ca*lam/(beta*R1)
        F  = 1 + 2E + r2*mu

    All nine values are strictly positive for admissible parameters.
    """
    h = grid.h
    tau = grid.tau
    ca = tau**params.alpha * math.gamma(2.0 - params.alpha)
    cg = tau**params.gamma * math.gamma(2.0 - params.gamma)
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


def assemble_block_system(c: SchemeConstants, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The 2(m-1) x 2(m-1) step matrix and its unit-inlet forcing vector.

    Block layout (q = m-1 interior nodes per zone):

    * mobile-mobile: tridiagonal with sub-diagonal -A, diagonal B,
      super-diagonal -r1; the reflecting outflow folds the ghost value
      into the last diagonal, giving B - r1 there;
    * mobile-immobile: -D on both off-diagonals (neighbour average),
      zero diagonal, and the fold puts -D on the last diagonal;
    * immobile-mobile: same pattern with -E;
    * immobile-immobile: F times the identity.

    The forcing vector, the right-hand side of a unit inlet value, holds
    +A and +E in the first row of each block; the immobile inlet value is
    zero so no coupling term enters.
    """
    _check_count(m, "m", 3, GridError)
    q = m - 1
    M = np.zeros((2 * q, 2 * q))
    flat = M.reshape(-1)

    def diagonal(row: int, col: int, length: int) -> np.ndarray:
        # A view of ``length`` entries down the diagonal from M[row, col].
        start = row * 2 * q + col
        return flat[start:start + length * (2 * q + 1):2 * q + 1]

    diagonal(0, 0, q)[:] = c.B
    diagonal(0, 1, q - 1)[:] = -c.r1
    diagonal(1, 0, q - 1)[:] = -c.A
    M[q - 1, q - 1] = c.B - c.r1

    diagonal(0, q + 1, q - 1)[:] = -c.D
    diagonal(1, q, q - 1)[:] = -c.D
    M[q - 1, 2 * q - 1] = -c.D

    diagonal(q, q, q)[:] = c.F
    diagonal(q, 1, q - 1)[:] = -c.E
    diagonal(q + 1, 0, q - 1)[:] = -c.E
    M[2 * q - 1, q - 1] = -c.E

    forcing = np.zeros(2 * q)
    forcing[0] = c.A
    forcing[q] = c.E
    return M, forcing


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
    if not _is_finite(inlet):
        raise ParameterError("inlet must be a finite number")
    m = grid.m
    state = _tangent_march(params, grid, inlet, tangents=False)
    u1 = np.zeros((m + 1, grid.n + 1))
    u2 = np.zeros((m + 1, grid.n + 1))
    u1[1:m] = state[:, 0, :m - 1].T
    u2[1:m] = state[:, 0, m - 1:].T
    # Inlet value and reflecting outflow (ghost node equals its neighbour).
    u1[0, 1:] = inlet
    u1[m, 1:] = u1[m - 1, 1:]
    u2[m, 1:] = u2[m - 1, 1:]
    return SolutionGrid(u1=u1, u2=u2, grid=grid)


def _march_setup(params: ModelParams, grid: GridSpec):
    """What the march fixes before its first step.

    Returns the unit-inlet forcing, the transpose of the inverse of the
    step matrix (formed once by ``np.linalg.inv``, which is LAPACK
    ``gesv`` on the identity; every step is a product with it), and the
    L1 weight tables: for the mobile (``weights[0]``) and the immobile
    (``weights[1]``) order, row 0 is the differenced power table of
    i^(1-order), i = 0..n+2 (0^e taken as 0), and row 1 that of its
    order derivative -ln(i) i^(1-order).  They hold w[0..n+1], one more
    than the L1 sums of n + 1 steps read, so that the march's
    a[d] = w[d] - w[d+1] is defined for every d <= n.  Both power tables
    come from one broadcast power, which gives the bits of one power per
    order.
    """
    matrix, forcing = assemble_block_system(scheme_constants(params, grid), grid.m)
    # In C order: the last bits of the products with it depend on its layout.
    minv_t = np.ascontiguousarray(np.linalg.inv(matrix).T)
    i = np.arange(grid.n + 3, dtype=float)
    powers = i ** (1.0 - np.array([[params.alpha], [params.gamma]]))
    powers[:, 0] = 0.0
    log_i = np.log(i.clip(1.0))  # i = 0 gives 0, as 0^e does
    weights = np.diff(np.stack([powers, -log_i * powers], axis=1))
    return forcing, minv_t, weights


def _digamma(x: float) -> float:
    """The digamma function psi(x) for x in [1, 2), within 2e-15 absolute.

    The recurrence psi(x) = psi(x + 8) - sum_{k<8} 1/(x + k) moves the
    argument to y = x + 8 >= 9, where the asymptotic series
    (Abramowitz & Stegun 6.3.18) up to y^-14 is exact to double
    precision: ln y - 1/(2y) - sum_k B_2k / (2k y^2k).  The logarithm is
    numpy's, whose last bit can differ from ``math.log``'s.
    """
    y = x + 8.0
    z = 1.0 / (y * y)
    series = 0.0
    # B_2k / 2k for k = 7, ..., 1, in Horner order.
    for c in (1 / 12, -691 / 32760, 1 / 132, -1 / 240, 1 / 252, -1 / 120, 1 / 12):
        series = series * z + c
    psi = float(np.log(y)) - 0.5 / y - series * z
    for k in range(7, -1, -1):  # smallest terms first
        psi -= 1.0 / (x + k)
    return psi


# Steps per history block, in every march; a march shorter than a block
# is one block.  On one machine (BENCH_20.json ``crossover_table``)
# blocks of 32 run the builtin 40x200 tangent march fastest and leave no
# forward_fine grid slower than the increment-form march they replaced;
# blocks of 64 are faster from about 1000 steps on, and blocks of 16
# lose 19% on 40x4000.  Blocks of 64 would also give the 40x200 tangent
# march a band as large as its state array, and glibc would then hand
# the heap back to the kernel after every march.
_HISTORY_BLOCK = 32


def _tangent_march(
    params: ModelParams, grid: GridSpec, inlet: float = 1.0, tangents: bool = True
) -> np.ndarray:
    """March of the interior state and, with ``tangents``, its order derivatives.

    Returns S of shape (n+1, 3, 2(m-1)), ordered like U: S[k, 0] is the
    state U^k for the inlet value ``inlet``, S[k, 1] = dU^k/d alpha and
    S[k, 2] = dU^k/d gamma, exact derivatives of the discrete march up
    to roundoff.  Without ``tangents`` S has shape (n+1, 1, 2(m-1)): the
    march carries the state alone, for :func:`solve_forward`.

    The L1 step is M U^{k+1} = U^k - H^k + f with the history
    H^k = sum_{j<k} w[k-j] (U^{j+1} - U^j), w[d] = (d+1)^e - d^e per zone
    (e = 1 - order, w[0] = 1).  U^0 = 0, so summing by parts puts the
    weights on the states themselves:

        U^k - H^k = sum_{i<=k} a[k-i] U^i,    a[d] = w[d] - w[d+1].

    The step matrix is M = I + C K, where C is ca on the mobile rows and
    cg on the immobile rows and K is free of the orders, and the inlet
    forcing is C times a fixed vector.  So differentiating the step in
    alpha needs no derivative of M:

        M V^{k+1} = V^k - H[V]^k - H_a[U]^k + l_a (U^{k+1} - U^k + H^k),

    the last two terms on the mobile rows only.  H[V] is the L1 history
    sum of V, H_a[U] is that of U with the alpha-derivative weights, and
    l_a = d ln(ca)/d alpha = ln(tau) - digamma(2 - alpha).  The gamma
    derivative is the same on the immobile rows.

    The tangents run one step behind the state: the march stores
    T[k] = (U^k, V^{k-1}), V^{-1} = 0, so step k makes U^{k+1} and V^k,
    and V^{k-1} - H[V]^{k-1} is the same a-weighted sum over the tangent
    rows of T[0..k].  U^k is then known when V^k is made, so the
    tangent's coupling to the state is history too, and by parts
    G^{k-1} = l_a (U^k - U^{k-1} + H^{k-1}) - H_a[U]^{k-1} is

        G^{k-1} = sum_{i<=k} beta[k-i] U^i,   beta[d] = c[d+1] - c[d],

    with c[0] = 0 and c[d] = l_a w[d-1] - dw[d-1]/d alpha.  With P_a the
    mobile rows, step k is

        U^{k+1} = Minv (sum_{i<=k} a[k-i] U^i + f)
        V^k     = Minv (sum_{i<=k} a[k-i] V^{i-1} + P_a sum_{i<=k} beta[k-i] U^i),

    and likewise for gamma with P_g, the immobile rows; Minv, the inverse
    of M, is formed once by :func:`_march_setup`.  With tangents the
    march runs n+1 steps, the last one for V^n alone; the state alone
    runs n steps.

    The steps run in blocks of b (``_HISTORY_BLOCK``), and the sums
    split at the first step k0 of each block.  At k0 one batched matmul
    weighs the states i < k0 for every step of the block, from a band of
    a-weights, band[i, col] = a[last + i - col], built once per march
    (last is the first step of the last block), so that step k0 + i
    reads its weights as the contiguous columns last - k0 onwards; one
    more matmul weighs the state rows by beta for the tangents.  That
    far row, with the forcing, waits in T[k + 1], the row step k fills.
    A step then makes three numpy calls: a matmul over the block's
    states T[k0..k] into the right-hand side, an add of T[k + 1] and a
    product with Minv, which overwrites T[k + 1].
    The near weights are interleaved, [zone, quantity, (state,
    quantity')], so that the beta term of each zone lands on the zone's
    own tangent inside the same product.

    T is the one state array, laid out [step, quantity, (zone, node)],
    so a right-hand side is laid out like T[k] and the near matmul reads
    a block's states through a [zone, (step, quantity), node] view of T.
    With tangents S is T with the tangent rows moved up one row.
    """
    n, q = grid.n, grid.m - 1
    r = 3 if tangents else 1  # quantities carried
    steps = n + 1 if tangents else n  # the tangents run one step behind
    b = _HISTORY_BLOCK
    last = (steps - 1) // b * b  # first step of the last block
    forcing, minv_t, weights = _march_setup(params, grid)
    # Per zone, row 0 weighs the states by a; row 1, which only the
    # tangents need, weighs the state by beta for the zone's own order.
    w = weights[:, 0]
    rows = [w[:, :-1] - w[:, 1:]]
    if tangents:
        log_tau = np.log(grid.tau)
        ell = np.array([[log_tau - _digamma(2.0 - params.alpha)],  # l_a
                        [log_tau - _digamma(2.0 - params.gamma)]])  # l_g
        c = np.zeros_like(w)
        c[:, 1:] = ell * w[:, :-1] - weights[:, 1, :-1]
        rows.append(np.diff(c))
    # Reversed behind b - 1 zeros: step k weighs T[i] by rev[..., n + b - 1 - k + i].
    rev = np.zeros((2, len(rows), n + b))
    rev[..., b - 1:] = np.stack(rows, axis=1)[..., ::-1]
    # band[zone, row, i, col] = rev[zone, row, n - last + b - 1 - i + col], copied
    # from a strided view (i runs backwards through rev)
    step = rev.strides[-1]
    band = np.lib.stride_tricks.as_strided(
        rev[..., n - last + b - 1:], (2, len(rows), b, last), (*rev.strides[:2], -step, step)
    ).copy()
    near = np.zeros((2, r, b, r))  # [zone, quantity, state, quantity']
    for p in range(r):
        near[:, p, :, p] = rev[:, 0, n:]
    if tangents:  # beta of zone z from the state onto its tangent, quantity 1 + z
        near[[0, 1], [1, 2], :, 0] = rev[:, 1, n:]
    near = near.reshape(2, r, b * r)
    near_i = [near[:, :, (b - 1 - i) * r:] for i in range(b)]  # step k0 + i's columns

    T = np.zeros((steps + 1, r, 2 * q))  # T[k] = (U^k, V^{k-1})
    by_zone = T.reshape(steps + 1, r, 2, q)
    # [zone, (step, quantity), node]: a view, since a step's quantities are its rows
    states = by_zone.transpose(2, 0, 1, 3).reshape(2, (steps + 1) * r, q)
    far_states = by_zone.transpose(1, 2, 0, 3)  # [quantity, zone, step, node]
    rhs = np.empty((r, 2 * q))
    rhs_out = rhs.reshape(r, 2, q).transpose(1, 0, 2)
    if tangents:
        far_g = np.empty((b, 2, q))

    with np.errstate(over="ignore", invalid="ignore"):
        forcing = inlet * forcing
        for k0 in range(0, steps, b):
            size = min(b, steps - k0)
            slots = T[k0 + 1:k0 + 1 + size]  # the rows the block's steps fill, all 0
            if k0:  # the first block has no states before it
                band_k0 = band[..., :size, last - k0:]
                np.matmul(band_k0[:, 0], far_states[:, :, :k0],
                          out=far_states[:, :, k0 + 1:k0 + 1 + size])
                if tangents:  # beta of zone z onto its tangent: slots[:, 1, :q], slots[:, 2, q:]
                    fold = slots.reshape(size, 2, 3 * q)[:, :, 2 * q:]
                    np.matmul(band_k0[:, 1], far_states[0, :, :k0],
                              out=far_g[:size].transpose(1, 0, 2))
                    np.add(fold, far_g[:size], out=fold)
            np.add(slots[:, 0], forcing, out=slots[:, 0])
            for i in range(size):
                np.matmul(near_i[i], states[:, k0 * r:(k0 + i + 1) * r], out=rhs_out)
                np.add(rhs, slots[i], out=rhs)
                np.dot(rhs, minv_t, out=slots[i])  # the state overwrites its far row

    S = T[:n + 1]
    if tangents:  # S[k] = (U^k, V^k)
        for k in range(0, n + 1, b):  # in chunks: one move of all rows copies them first
            S[k:k + b, 1:] = T[k + 1:k + b + 1, 1:]
    if not np.isfinite(S).all():
        finite = np.isfinite(S).all(axis=(1, 2))
        raise SolverError(f"non-finite solution values at time step {np.argmin(finite)}")
    return S


def extract_observation(
    solution: SolutionGrid, x0: float, times: np.ndarray | None = None
) -> ObservationSeries:
    """Read the mobile concentration at one interior grid node.

    ``x0`` must coincide with a spatial node strictly inside (0, 1)
    (see :meth:`GridSpec.interior_node`).  By default all positive grid
    times are returned; an explicit ``times`` array must likewise align
    with grid times (see :meth:`GridSpec.time_indices`).
    """
    grid = solution.grid
    i = grid.interior_node(x0)
    idx = np.arange(1, grid.n + 1) if times is None else grid.time_indices(times)
    return ObservationSeries(
        x0=i * grid.h,
        times=idx * grid.tau,
        values=solution.u1[i, idx].copy(),
    )
