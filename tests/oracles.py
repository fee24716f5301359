"""Independent oracles used by the test suite.

Everything here is implemented from first principles, sharing no code
with the package internals, so a test that compares against these
functions is a genuine two-route check:

* a backward-Euler solver for the classical (integer-order) degrading
  two-zone transport system, assembled row by row from the PDE;
* the Mittag-Leffler function by direct series summation;
* a tridiagonal-free dense evaluation of the marching matrix from its
  printed block pattern, used to cross-check the vectorized assembly;
* the L1 history weight and its second-difference (per-level) form,
  one scalar power at a time, against the solver's vectorized power
  table;
* the order sensitivities by central differences of real forward
  solves, against the complex-step Jacobian of the order recovery.
  This one oracle runs the package's own march: it checks the
  differentiation, not the march.
"""

from __future__ import annotations

import numpy as np
from scipy.special import rgamma

from fracmim import extract_observation, solve_forward


def backward_euler_classical(p, grid, inlet=1.0):
    """Classical degrading two-zone system, fully implicit first-order march.

    Spatial treatment mirrors the production scheme (upwind advection,
    central diffusion, neighbour-averaged inter-zone coupling, reflecting
    outflow) but the equations are written in raw PDE scaling and the
    matrix is assembled with plain loops, one equation at a time.

    Returns (u1, u2) arrays of shape (m+1, n+1), indexed [space, time].
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
            rhs_bc[r] += (1.0 / h + 1.0 / (p.P * h * h)) * inlet
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
            rhs_bc[s] += (p.omega / 2.0) * inlet
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
        u1[0, k + 1] = inlet
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
    (m-1)x(m-1) blocks entry by entry with explicit index loops.
    """
    q = m - 1
    M11 = np.zeros((q, q))
    M12 = np.zeros((q, q))
    M21 = np.zeros((q, q))
    M22 = np.zeros((q, q))
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
