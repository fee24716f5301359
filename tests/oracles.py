"""Independent oracles used by the test suite.

Everything here is implemented from first principles, sharing no code
with the package internals, so a test that compares against these
functions is a genuine two-route check:

* a backward-Euler solver for the classical (integer-order) degrading
  two-zone transport system, assembled row by row from the PDE;
* the Mittag-Leffler function by direct series summation;
* a tridiagonal-free dense evaluation of the marching matrix from its
  printed block pattern, used to cross-check the vectorized assembly;
* the L1 power table of one order, and the L1 history weight and its
  second-difference (per-level) form one scalar power at a time, against
  the solver's weights, which come from one broadcast power for both
  orders;
* the order sensitivities by central differences of real forward
  solves, against the tangent-linear Jacobian of the order recovery.
  This one oracle runs the package's own march: it checks the
  differentiation, not the march;
* the same sensitivities by a complex step through a small complex
  march of its own, exact to roundoff like the tangent-linear march;
* the L1 march solving every step with LAPACK ``getrs`` on the LU
  factors of the oracle matrix (it shares only the scheme constants with
  the package), against the package's march, which
  applies a precomputed inverse;
* the closed-form transform profile written out plainly: b(s), the
  roots and the boundary fit each on their own, every fractional power
  through numpy's ``**``, and a fresh array for every operation.  The
  package's in-place evaluation from one complex log must give its
  bits;
* a contour inversion point on numpy arrays throughout: the Talbot
  nodes and weights built here, the plain profile on all 48 nodes, and
  numpy's sums, divides, ``abs`` and ``max`` for the value and the error
  estimate, against the package's point, which finishes on Python floats;
* the CSV writer and reader one cell at a time (``str.format`` and
  ``float`` per cell), and the per-cell rows of the solution file, as
  the byte-for-byte and message-for-message reference of the block
  CSV layer;
* the rows of a noise-sweep table by hand: one clean series for the
  whole spec, one replicate at a noise-free level, one package
  inversion per seed and plain numpy means.  It runs the package's own
  seeds and inversions: it checks how a table is put together, not
  the inversion.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import scipy.linalg
from scipy.special import gamma as gamma_fn
from scipy.special import rgamma

from fracmim import (
    ReplicateSummary, ValidationError, add_noise, extract_observation, invert_orders,
    solve_forward,
)
from fracmim.inversion import _replicate_seeds
from fracmim.solver import scheme_constants


def backward_euler_classical(p, grid):
    """Classical degrading two-zone system, fully implicit first-order march.

    Spatial treatment mirrors the production scheme (upwind advection,
    central diffusion, neighbour-averaged inter-zone coupling, reflecting
    outflow) but the equations are written in raw PDE scaling and the
    matrix is assembled with plain loops, one equation at a time.

    Returns the unit-inlet (u1, u2) arrays of shape (m+1, n+1), indexed [space, time].
    """
    m, n = grid.m, grid.n
    h, tau = grid.h, grid.tau
    q = m - 1
    br1 = p.beta * p.R1
    br2 = (1.0 - p.beta) * p.R2

    M = np.zeros((2 * q, 2 * q))
    rhs_bc = np.zeros(2 * q)
    for i in range(1, m):
        r = i - 1           # mobile unknown v_i
        s = q + i - 1       # immobile unknown w_i
        # mobile: br1*(v-u)/tau + (v_i - v_{i-1})/h
        #         + (2 v_i - v_{i-1} - v_{i+1})/(P h^2)
        #         + omega*(v_i - (w_{i-1}+w_{i+1})/2) + lam*v_i = 0
        M[r, r] += br1 / tau + 1.0 / h + 2.0 / (p.P * h * h) + p.omega + p.lam
        if i - 1 >= 1:
            M[r, r - 1] += -1.0 / h - 1.0 / (p.P * h * h)
        else:
            rhs_bc[r] += 1.0 / h + 1.0 / (p.P * h * h)  # unit inlet
        if i + 1 <= m - 1:
            M[r, r + 1] += -1.0 / (p.P * h * h)
        else:  # reflecting ghost v_m = v_{m-1}
            M[r, r] += -1.0 / (p.P * h * h)
        if i - 1 >= 1:
            M[r, q + i - 2] += -p.omega / 2.0
        # immobile inlet value is zero: no forcing from w_0
        if i + 1 <= m - 1:
            M[r, q + i] += -p.omega / 2.0
        else:
            M[r, s] += -p.omega / 2.0
        # immobile: br2*(w-u)/tau + omega*(w_i - (v_{i-1}+v_{i+1})/2) + mu*w_i = 0
        M[s, s] += br2 / tau + p.omega + p.mu
        if i - 1 >= 1:
            M[s, r - 1] += -p.omega / 2.0
        else:
            rhs_bc[s] += p.omega / 2.0
        if i + 1 <= m - 1:
            M[s, r + 1] += -p.omega / 2.0
        else:
            M[s, r] += -p.omega / 2.0

    u1 = np.zeros((m + 1, n + 1))
    u2 = np.zeros((m + 1, n + 1))
    for k in range(n):
        rhs = np.concatenate([br1 / tau * u1[1:m, k], br2 / tau * u2[1:m, k]])
        rhs += rhs_bc
        v = np.linalg.solve(M, rhs)
        u1[0, k + 1] = 1.0
        u1[1:m, k + 1] = v[:q]
        u1[m, k + 1] = v[q - 1]
        u2[1:m, k + 1] = v[q:]
        u2[m, k + 1] = v[2 * q - 1]
    return u1, u2


def mittag_leffler(alpha: float, x: float, terms: int = 300) -> float:
    """One-parameter Mittag-Leffler function E_alpha(x) by series summation.

    Uses the reciprocal gamma so deep terms underflow to zero instead of
    overflowing; accurate to full double precision for the moderate
    |x| <= 5 arguments the transform-pair tests need.
    """
    k = np.arange(terms)
    return float(np.sum(np.float_power(x, k) * rgamma(alpha * k + 1.0)))


def dense_block_matrix(A, B, D, E, F, r1, m):
    """Marching matrix written directly from its printed block pattern.

    Independent of the production assembly: builds each of the four
    (m-1)x(m-1) blocks entry by entry with explicit index loops.  Complex
    entries give a complex matrix.
    """
    q = m - 1
    dtype = np.result_type(A, B, D, E, F, r1)  # complex for the complex-step march
    M11 = np.zeros((q, q), dtype)
    M12 = np.zeros((q, q), dtype)
    M21 = np.zeros((q, q), dtype)
    M22 = np.zeros((q, q), dtype)
    for i in range(q):
        M11[i, i] = B
        M22[i, i] = F
        if i > 0:
            M11[i, i - 1] = -A
            M12[i, i - 1] = -D
            M21[i, i - 1] = -E
        if i < q - 1:
            M11[i, i + 1] = -r1
            M12[i, i + 1] = -D
            M21[i, i + 1] = -E
    M11[q - 1, q - 1] = B - r1
    M12[q - 1, q - 1] = -D
    M21[q - 1, q - 1] = -E
    return np.block([[M11, M12], [M21, M22]])


def _frac_pow(base: float, expo: float) -> float:
    # 0^0 is taken as 0: the L1 weights extend continuously to order 1,
    # where the bracket at j=k must stay exactly 1.
    if base == 0.0:
        return 0.0
    return float(base) ** expo


def l1_bracket(order: float, k: int, j: int) -> float:
    """History weight (k+1-j)^(1-order) - (k-j)^(1-order) of the L1 scheme.

    Strictly positive for order in (0, 1); exactly 1 at j = k for every
    order in (0, 1].
    """
    if not 0 <= j <= k:
        raise ValueError(f"need 0 <= j <= k, got j={j}, k={k}")
    e = 1.0 - order
    return _frac_pow(k + 1 - j, e) - _frac_pow(k - j, e)


def psi_weight(order: float, k: int, j: int) -> float:
    """Second-difference weight 2(k+1-j)^e - (k-j)^e - (k-j+2)^e, e = 1-order.

    This is the coefficient multiplying the level-j solution when the L1
    history sum is rearranged into per-level form.  Nonnegative for order
    in (0, 1) by concavity of t^e.
    """
    if k < 2 or not 1 <= j <= k - 1:
        raise ValueError(f"need k >= 2 and 1 <= j <= k-1, got j={j}, k={k}")
    e = 1.0 - order
    return 2.0 * _frac_pow(k + 1 - j, e) - _frac_pow(k - j, e) - _frac_pow(k - j + 2, e)


def central_difference_jacobian(z, p_base, grid, obs_times, x0, h):
    """Order sensitivities of the observed series by central differences.

    Column k is (u1(x0, t; z + h e_k) - u1(x0, t; z - h e_k)) / (2h) from
    two real marches through the public API; it differs from the exact
    derivative of the discrete march by O(h^2).
    """

    def observe(orders):
        sol = solve_forward(p_base.with_orders(*orders), grid)
        return extract_observation(sol, x0, obs_times).values

    z = np.asarray(z, dtype=float)
    G = np.empty((len(obs_times), 2))
    for k in range(2):
        step = np.zeros(2)
        step[k] = h
        G[:, k] = (observe(z + step) - observe(z - step)) / (2.0 * h)
    return G


def _complex_observed(p, alpha, gamma, grid, node, steps):
    # The L1 march with complex orders, from the printed scheme: constants
    # tau^order Gamma(2-order), the block matrix, and per step the history
    # sum over the increments with weights (i+1)^(1-order) - i^(1-order).
    m, n = grid.m, grid.n
    h, tau = 1.0 / m, grid.T / n
    q = m - 1
    ca = tau**alpha * gamma_fn(2.0 - alpha)
    cg = tau**gamma * gamma_fn(2.0 - gamma)
    br1 = p.beta * p.R1
    r1 = ca / (p.P * br1 * h * h)
    r2 = cg / ((1.0 - p.beta) * p.R2)
    A = ca / (br1 * h) + r1
    D = p.omega * ca / (2.0 * br1)
    E = r2 * p.omega / 2.0
    B = 1.0 + A + r1 + 2.0 * D + ca * p.lam / br1
    F = 1.0 + 2.0 * E + r2 * p.mu
    factors = scipy.linalg.lu_factor(dense_block_matrix(A, B, D, E, F, r1, m))
    forcing = np.zeros(2 * q, complex)
    forcing[0], forcing[q] = A, E

    i = np.arange(1.0, n + 1.0)
    w1 = (i + 1.0) ** (1.0 - alpha) - i ** (1.0 - alpha)
    w2 = (i + 1.0) ** (1.0 - gamma) - i ** (1.0 - gamma)
    U = np.zeros((n + 1, 2 * q), complex)
    for k in range(n):
        back = k - 1 - np.arange(k)  # weight index k-j-1 of increment j
        inc = U[1:k + 1] - U[:k]
        rhs = U[k] + forcing
        rhs[:q] -= w1[back] @ inc[:, :q]
        rhs[q:] -= w2[back] @ inc[:, q:]
        U[k + 1] = scipy.linalg.lu_solve(factors, rhs)
    return U[steps, node - 1]


def complex_step_jacobian(z, p_base, grid, obs_times, x0, h=1e-30):
    """Order sensitivities of the observed series by the complex step.

    Column k is Im u1(x0, t; z + i h e_k) / h from a complex march
    written here from the scheme's definition; it differs from the
    derivative of the discrete march by O(h^2) and involves no difference
    of nearby values, so at h = 1e-30 it is exact to roundoff.
    """
    node = int(round(x0 * grid.m))
    steps = np.rint(np.asarray(obs_times) * grid.n / grid.T).astype(int)
    G = np.empty((len(steps), 2))
    for k in range(2):
        orders = [complex(v) for v in z]
        orders[k] += h * 1j
        G[:, k] = _complex_observed(p_base, *orders, grid, node, steps).imag / h
    return G


def l1_power_table(order: float, n: int) -> np.ndarray:
    """Table of i^(1-order) for i = 0..n+1, with the 0^0 = 0 convention.

    Differenced once, it gives the L1 weights w[d] = (d+1)^e - d^e of one
    order, e = 1 - order.
    """
    e = 1.0 - order
    table = np.arange(n + 2, dtype=float) ** e
    table[0] = 0.0
    return table


def getrs_march(p, grid):
    """Fields (u1, u2) of the unit-inlet L1 march, each step solved with ``getrs``.

    The set-up is its own: the matrix of :func:`dense_block_matrix` with
    ``lu_factor``, and history weights differenced from the power table.
    Step k weighs increment j = 0..k-1 by (k+1-j)^e - (k-j)^e, the
    reversed view d[k:0:-1] of the differenced table.
    """
    m, n = grid.m, grid.n
    q = m - 1
    c = scheme_constants(p, grid)
    lu, piv = scipy.linalg.lu_factor(dense_block_matrix(c.A, c.B, c.D, c.E, c.F, c.r1, m))
    (getrs,) = scipy.linalg.get_lapack_funcs(("getrs",), (lu,))
    d1 = np.diff(l1_power_table(p.alpha, n))
    d2 = np.diff(l1_power_table(p.gamma, n))
    forcing = np.zeros(2 * q)
    forcing[0], forcing[q] = c.A, c.E
    u1 = np.zeros((m + 1, n + 1))
    u2 = np.zeros((m + 1, n + 1))
    du1 = np.zeros((q, n))  # increments u^{j+1} - u^j per interior node
    du2 = np.zeros((q, n))
    for k in range(n):
        rhs = np.concatenate(
            [u1[1:m, k] - du1[:, :k] @ d1[k:0:-1], u2[1:m, k] - du2[:, :k] @ d2[k:0:-1]]
        )
        sol, info = getrs(lu, piv, rhs + forcing)
        assert info == 0
        u1[1:m, k + 1], u2[1:m, k + 1] = sol[:q], sol[q:]
        du1[:, k] = u1[1:m, k + 1] - u1[1:m, k]
        du2[:, k] = u2[1:m, k + 1] - u2[1:m, k]
    # Inlet value and reflecting outflow (ghost node equals its neighbour).
    u1[0, 1:] = 1.0
    u1[m, 1:] = u1[m - 1, 1:]
    u2[m, 1:] = u2[m - 1, 1:]
    return u1, u2


def coeff_b(s, p, denom):
    """Zeroth-order coefficient b(s) of the transformed mobile equation.

    ``denom`` is :func:`immobile_denom` at ``s``.  Principal branches of
    the fractional powers; Re b < 0 on Re s > 0.
    """
    return -p.beta * p.R1 * s**p.alpha - p.omega - p.lam + p.omega**2 / denom


def immobile_denom(s, p):
    """(1-beta) R2 s^gamma + omega + mu: u2_hat = omega u1_hat / this."""
    return (1.0 - p.beta) * p.R2 * s**p.gamma + p.omega + p.mu


def roots_and_fit(s, p, denom):
    """b, eta1, eta2, c1 and c2 at an array of frequencies off the cut.

    ``denom`` is :func:`immobile_denom` at ``s``.  a*eta^2 - eta + b = 0
    (a = 1/P) with Re(eta1) >= Re(eta2); c1 + c2 = 1/s (inlet) and
    c1*eta1*e^eta1 + c2*eta2*e^eta2 = 0 (outflow), both divided through
    by e^eta1 so that no exponential can overflow.
    """
    a = 1.0 / p.P
    b = coeff_b(s, p, denom)
    root = np.sqrt(1.0 - 4.0 * a * b)
    eta1 = (1.0 + root) / (2.0 * a)
    eta2 = (1.0 - root) / (2.0 * a)
    g = np.exp(eta2 - eta1)
    fit = s * (eta1 - eta2 * g)
    return b, eta1, eta2, -eta2 * g / fit, eta1 / fit


def plain_profile(x, s, p):
    """(u1_hat, u2_hat) at x for an array of frequencies off the cut.

    u1_hat(0) = 1/s by ``np.reciprocal``; elsewhere u1_hat = c2 (e^{eta2 x}
    - (eta2/eta1) e^{eta1 (x-1) + eta2}), the fit with c1 = -c2 (eta2/eta1)
    e^{eta2 - eta1} substituted.
    """
    denom = immobile_denom(s, p)
    if x == 0.0:
        u1 = np.reciprocal(s)
    else:
        _, eta1, eta2, _, c2 = roots_and_fit(s, p, denom)
        u1 = c2 * (np.exp(eta2 * x) - eta2 / eta1 * np.exp(eta1 * (x - 1.0) + eta2))
    return u1, p.omega * u1 / denom


def talbot_contour(nodes):
    """Nodes and weights at t = 1 on the upper half of the Talbot contour.

    s(theta) = r theta (cot theta + i), theta = k pi / nodes (k = 0..nodes-1),
    r = 2 nodes / 5; weights e^s (1 + i sigma) r / nodes, halved on the
    real node, with sigma = theta + (theta cot theta - 1) cot theta.
    """
    r = 2.0 * nodes / 5.0
    theta = np.arange(1, nodes) * (np.pi / nodes)
    cot = np.cos(theta) / np.sin(theta)
    sigma = theta + (theta * cot - 1.0) * cot
    s = np.concatenate(([r], r * theta * (cot + 1j)))
    return s, np.exp(s) * np.concatenate(([0.5], 1.0 + 1j * sigma)) * (r / nodes)


def plain_invert(x, t, p):
    """(u1, u2, est_rel_err) at (x, t) from the 16- and 32-node contours.

    The plain profile on the 48 nodes s / t of both contours, coarse
    first; f(t) = Re(sum w f(s/t)) / t per contour, and the estimate is
    the largest move of the 32-node values from the 16-node ones against
    the largest 32-node value, floored at 1e-3.  No tolerance check.
    """
    (s16, w16), (s32, w32) = talbot_contour(16), talbot_contour(32)
    s, w = np.concatenate((s16, s32)), np.concatenate((w16, w32))
    terms = (np.array(plain_profile(x, s / t, p)) * w).real
    coarse = terms[:, :16].sum(axis=-1) / t
    fine = terms[:, 16:].sum(axis=-1) / t
    scale = max(float(np.abs(fine).max()), 1e-3)
    return float(fine[0]), float(fine[1]), float(np.abs(fine - coarse).max()) / scale


def percell_write_csv(path, header, rows):
    """Header line, then every cell as ``"{:.17g}".format(float(cell))``."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join("{:.17g}".format(float(v)) for v in row) + "\n")


def percell_solution_rows(sol):
    """Rows (x, t, u1, u2) of a solution, time-major, one cell at a time."""
    xs = sol.grid.space_nodes()
    ts = sol.grid.time_nodes()
    for k, t in enumerate(ts):
        for i, x in enumerate(xs):
            yield (x, t, sol.u1[i, k], sol.u2[i, k])


def percell_read_csv(path):
    """(header, array) of a CSV, every cell parsed by ``float`` in row order.

    Blank and whitespace-only lines are dropped before rows are counted;
    the first wrong width or non-numeric cell raises with its row.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = [ln.rstrip("\n") for ln in f if ln.strip() != ""]
    except UnicodeDecodeError as e:
        raise ValidationError(f"{path}: not a UTF-8 text file: {e}") from None
    if not lines:
        raise ValidationError(f"{path}: empty file, expected a CSV header")
    header = lines[0].split(",")
    data = np.empty((len(lines) - 1, len(header)))
    for r, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValidationError(
                f"{path}: row {r} has {len(cells)} fields, expected {len(header)}"
            )
        for cidx, cell in enumerate(cells):
            try:
                data[r - 1, cidx] = float(cell)
            except ValueError:
                raise ValidationError(
                    f"{path}: row {r}: non-numeric value {cell!r} "
                    f"in column {header[cidx]!r}"
                ) from None
    return header, data


def table_rows_by_hand(spec):
    """The ReplicateSummary rows of ``spec``'s noise sweep, one per level.

    The clean series is computed once and shared by every level; a level
    of 0 runs one replicate, any other ``spec.replicates``.  No replicate
    may fail.
    """
    clean = extract_observation(solve_forward(spec.params, spec.grid), spec.x0)
    z_exact = (spec.params.alpha, spec.params.gamma)
    rows = []
    for delta in spec.noise_levels:
        count = 1 if delta == 0 else spec.replicates
        results = [
            invert_orders(add_noise(clean, delta, seed), spec.params, spec.grid,
                          spec.inversion, z_exact)
            for seed in _replicate_seeds(spec.seed, delta, count)
        ]
        z = np.mean([r.z_inv for r in results], axis=0)
        rows.append(ReplicateSummary(
            delta=float(delta), replicates=count, failures=0,
            z_mean=(float(z[0]), float(z[1])),
            rel_error_mean=float(np.mean([r.rel_error for r in results])),
            iterations_mean=float(np.mean([r.iterations for r in results])),
            stops={reason: [r.stop_reason for r in results].count(reason)
                   for reason in ("step_tol", "residual_rise", "max_iter")},
        ))
    return rows
