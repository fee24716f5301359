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
history weights are one difference of the power table, read backwards.
Finiteness is checked once, after the march, which reports the first
non-finite time step.

One march serves the forward solve and the order recovery.  The forward
solve advances the state alone.  The recovery also needs the state's
derivatives in both orders, which the same march advances together
with the state (forward-mode differentiation of the march itself, so
the derivatives are exact to roundoff).  The derivatives run one step
behind the state, so their coupling to the state is one more history
sum of the same batched product, and the step's single product with the
inverse advances the state and both derivatives.

The L1 history sum of step k weighs every earlier increment.  A march of
more than 512 steps splits it at the first step of each block of 64:
one matrix product there gives every step of the block its far part,
which also carries the inlet forcing (and the far part of the
derivatives' coupling to the state), and each step sums only the
increments of its own block, in as many numpy calls as without blocks.
A march of up to 512 steps is one block, the unblocked march bit for
bit (``_history_block`` says why the cutoff sits there).

A march makes one working allocation, the state rows and their
increments, both state-major, so the increment write and the history
subtractions run on contiguous operands.  An increment row holds its
step's far term until the step writes the increment, and the tangent
march's result goes into the increment rows.  glibc hands separate
arrays of this size back to the kernel when freed, and a fresh process
then faults about 245 pages in per 40x200 march.
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
    _is_finite,
    _is_number,
    l1_power_table,
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
    if not (isinstance(m, int) and m >= 3):
        raise GridError("m must be an integer >= 3")
    q = m - 1
    M = np.zeros((2 * q, 2 * q))

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
    i^(1-order) and row 1 that of its order derivative -ln(i) i^(1-order).
    """
    matrix, forcing = assemble_block_system(scheme_constants(params, grid), grid.m)
    # In C order: the last bits of the products with it depend on its layout.
    minv_t = np.ascontiguousarray(np.linalg.inv(matrix).T)
    powers = np.stack([l1_power_table(order, grid.n) for order in (params.alpha, params.gamma)])
    log_i = np.log(np.arange(grid.n + 2).clip(1))  # i = 0 gives 0, as 0^e does
    weights = np.diff(np.stack([powers, -log_i * powers], axis=1))
    return forcing, minv_t, weights


def _digamma(x: np.ndarray) -> np.ndarray:
    """The digamma function psi(x) for x in [1, 2), within 2e-15 absolute.

    The recurrence psi(x) = psi(x + 8) - sum_{k<8} 1/(x + k) moves the
    argument to y = x + 8 >= 9, where the asymptotic series
    (Abramowitz & Stegun 6.3.18) up to y^-14 is exact to double
    precision: ln y - 1/(2y) - sum_k B_2k / (2k y^2k).
    """
    y = x + 8.0
    z = 1.0 / (y * y)
    series = 0.0
    # B_2k / 2k for k = 7, ..., 1, in Horner order.
    for c in (1 / 12, -691 / 32760, 1 / 132, -1 / 240, 1 / 252, -1 / 120, 1 / 12):
        series = series * z + c
    psi = np.log(y) - 0.5 / y - series * z
    for k in range(7, -1, -1):  # smallest terms first
        psi = psi - 1.0 / (x + k)
    return psi


def _history_block(steps: int) -> int:
    """Steps per history block of a march of ``steps`` steps.

    A march of up to 512 steps is one block; a longer one runs blocks of
    64 steps.  Blocks trade each step's matrix-vector shaped product over
    the whole past for one matrix-matrix product per block.  On one
    machine (BENCH_18.json ``crossover_table``) they lose below 400 steps
    (the builtin 40x200 tangent march by 20%), are about even at 400 and
    win from 600 steps on.  The cutoff sits at 512 rather than 400 to keep
    every march up to ``forward_fine``'s 80x400 grid one block, the
    unblocked march bit for bit, at about 3% on 80x400.  Blocks of 32 and
    128 were within 10% of 64 from 600 to 4000 steps.
    """
    return steps if steps <= 512 else 64


def _history_band(rev: np.ndarray, b: int, last: int) -> np.ndarray:
    """The far-history weights of every block, read from one array.

    ``rev`` holds the reversed weight rows, step k weighing increment j
    by ``rev[..., n - k + j]``.  Returns band with
    band[..., i, col] = rev[..., n - last + col - i] (zero where that
    index is negative), shape (..., b, last), so that step k0 + i of the
    block that starts at k0 weighs increment j < k0 by
    band[..., i, last - k0 + j]: each block's far weights are the
    contiguous slice band[..., :, last - k0:].
    """
    n = rev.shape[-1] - 1
    lo = n - last - (b - 1)  # rev index of band[..., b - 1, 0]
    padded = np.zeros(rev.shape[:-1] + (last + b - 1,))
    padded[..., max(-lo, 0):] = rev[..., max(lo, 0):n]
    windows = np.lib.stride_tricks.sliding_window_view(padded, last, axis=-1)
    return windows[..., ::-1, :].copy()


def _tangent_march(
    params: ModelParams, grid: GridSpec, inlet: float = 1.0, tangents: bool = True
) -> np.ndarray:
    """March of the interior state and, with ``tangents``, its order derivatives.

    Returns S of shape (n+1, 3, 2(m-1)), ordered like U: S[k, 0] is the
    state U^k for the inlet value ``inlet``, S[k, 1] = dU^k/d alpha and
    S[k, 2] = dU^k/d gamma, exact derivatives of the discrete march up
    to roundoff.  Without ``tangents`` S has shape (n+1, 1, 2(m-1)): the
    march carries the state alone, for :func:`solve_forward`.

    The step matrix is M = I + C K, where C is ca on the mobile rows and
    cg on the immobile rows and K is free of the orders, and the inlet
    forcing is C times a fixed vector.  So differentiating
    M U^{k+1} = U^k - H^k + f in alpha needs no derivative of M:

        M V^{k+1} = V^k - H[V]^k - H_a[U]^k + l_a (U^{k+1} - U^k + H^k),

    the last two terms on the mobile rows only.  H[V] is the L1 history
    sum of V, H_a[U] is that of U with the alpha-derivative weights, and
    l_a = d ln(ca)/d alpha = ln(tau) - digamma(2 - alpha).  The gamma
    derivative is the same on the immobile rows.

    The march applies the inverse Minv of M, formed once by
    :func:`_march_setup`, and solves nothing per step.  The tangents run
    one step behind the state: the march stores T[k] = (U^k, V^{k-1}),
    V^{-1} = 0, so step k makes U^{k+1} and V^k, and the increments
    T[j+1] - T[j] of the state and the tangents are weighed by the same
    w[k-j] for H^k and H[V]^{k-1}.  U^k is then known when V^k is made,
    so the tangent's whole right-hand side is history.  U^0 = 0 makes
    U^k the sum of the increments, so
    G^{k-1} = l_a (U^k - U^{k-1} + H^{k-1}) - H_a[U]^{k-1} weighs
    increment j by c[k-j], c[i] = l_a w[i-1] - dw[i-1]/d alpha for
    i >= 1: the -l_a U^{k-1} and the coupling's +l_a U^k cancel on every
    earlier increment and leave c[1] = l_a (w[0] = 1, dw[0] = 0) on the
    last.  With P_a the mobile rows,

        U^{k+1} = Minv (U^k - H^k + f)
        V^k     = Minv (V^{k-1} - H[V]^{k-1} + P_a G^{k-1}),

    and likewise for gamma with P_g, the immobile rows.  With tangents
    the march runs n+1 steps, the last one for V^n alone; the state
    alone runs n steps of the w row.

    The steps run in blocks of b (:func:`_history_block`).  The history
    of step k splits at the first step k0 of its block: the far part
    weighs the increments j < k0, the near part those in k0 <= j < k.
    At k0 one batched matmul makes the far part of every step of the
    block.  Its weights are the columns last - k0 onwards of a band,
    band[i, col] = w[last + i - col], built once per march (last is the
    first step of the last block); the c row of the fold is made for the
    state only, since only the state's G enters.  The forcing and the far G
    are folded into that far term, far[k] = H_far^k - f - P G_far^k, so
    a step is one batched near-history matmul for both zones and both
    rows w and c, the right-hand side rhs = (T[k] - H_near^k) - far[k],
    the near G added, one product with Minv for the state and both
    tangents, and the increment write.  A march of one block has k0 = 0
    and far = -f, and x - (-f) is x + f exactly, so it is the unblocked
    march bit for bit.

    T and the increments inc[k] = T[k+1] - T[k] are two views of one
    zeroed array, both laid out [step, quantity, (zone, node)], so the
    increment write and the history subtraction are contiguous.  No step
    reads inc[k] before step k writes it, so inc[k] holds far[k] until
    then, and with tangents S is written into the n+1 increment rows
    after the last step.  The history matmuls are batched over
    (quantity, zone), each zone's weight rows broadcast over the
    quantities, and write through transposed views of [weight row,
    quantity, (zone, node)] and [step, quantity, (zone, node)] buffers,
    so that H comes out laid out like T.
    """
    n, q = grid.n, grid.m - 1
    r = 3 if tangents else 1  # quantities carried
    steps = n + 1 if tangents else n  # the tangents run one step behind
    b = _history_block(steps)
    last = (steps - 1) // b * b  # first step of the last block
    forcing, minv_t, weights = _march_setup(params, grid)
    # Per zone, row 0 gives the history sum H and row 1, which only the
    # tangents need, the c-weighted sum G of the zone's own order;
    # reversed, so that step k's weights are the contiguous columns
    # n-k..n-1.
    w = weights[:, 0]
    rows = [w]
    if tangents:
        orders = np.array([[params.alpha], [params.gamma]])
        ell = np.log(grid.tau) - _digamma(2.0 - orders)  # l_a, l_g
        c = np.zeros_like(w)
        c[:, 1:] = ell * w[:, :-1] - weights[:, 1, :-1]
        rows.append(c)
    rev = np.stack(rows, axis=1)[..., ::-1].copy()
    band = _history_band(rev, b, last) if last else None

    work = np.zeros((2 * steps + 1, r, 2 * q))  # the one allocation
    T = work[:steps + 1]  # T[k] = (U^k, V^{k-1})
    inc = work[steps + 1:]  # far[k] until step k runs, then T[k+1] - T[k]
    # [quantity, zone, step, node] and [quantity, zone, weight row, node]
    # views of the increments and the sums, for the history matmuls.
    inc_by_zone = inc.reshape(steps, r, 2, q).transpose(1, 2, 0, 3)
    sums = np.empty((len(rows), r, 2 * q))  # [weight row, quantity, (zone, node)]
    sums_out = sums.reshape(len(rows), r, 2, q).transpose(1, 2, 0, 3)
    hist = sums[0]  # H, laid out like T[k]
    folded = sums[-1, 0].reshape(2, q)  # G per zone
    rhs = np.empty((r, 2 * q))
    if tangents:
        # G of zone z adds to its own tangent on its own rows: rhs[1, :q]
        # and rhs[2, q:], which are the last q entries of each half of rhs.
        fold = rhs.reshape(2, 3 * q)[:, 2 * q:]
        far_fold = inc.reshape(steps, 2, 3 * q)[:, :, 2 * q:]
        far_g = np.empty((b, 2, q)) if last else None  # G_far per zone

    with np.errstate(over="ignore", invalid="ignore"):
        forcing = inlet * forcing
        for k0 in range(0, steps, b):
            size = min(b, steps - k0)
            block = slice(k0, k0 + size)
            if k0:  # the first block has no far history: its far rows stay zero
                band_k0 = band[..., :size, last - k0:]
                np.matmul(band_k0[:, 0], inc_by_zone[:, :, :k0], out=inc_by_zone[:, :, block])
                if tangents:
                    np.matmul(band_k0[:, 1], inc_by_zone[0, :, :k0],
                              out=far_g[:size].transpose(1, 0, 2))
                    np.subtract(far_fold[block], far_g[:size], out=far_fold[block])
            np.subtract(inc[block, 0], forcing, out=inc[block, 0])
            per_step = zip(
                (rev[:, :, n - k + k0:n] for k in range(k0, k0 + size)),
                (inc_by_zone[:, :, k0:k] for k in range(k0, k0 + size)),
                T[block],
                T[k0 + 1:k0 + size + 1],
                inc[block],
            )
            for weights_k, inc_k, old, new, inc_new in per_step:
                np.matmul(weights_k, inc_k, out=sums_out)
                np.subtract(old, hist, out=rhs)
                np.subtract(rhs, inc_new, out=rhs)  # inc_new holds far[k]
                if tangents:
                    np.add(fold, folded, out=fold)
                np.dot(rhs, minv_t, out=new)
                np.subtract(new, old, out=inc_new)

    if tangents:  # S[k] = (U^k, V^k), written into the n+1 increment rows
        inc[:, 0] = T[:-1, 0]
        inc[:, 1:] = T[1:, 1:]
    S = inc if tangents else T
    finite = np.isfinite(S).all(axis=(1, 2))
    if not finite.all():
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
