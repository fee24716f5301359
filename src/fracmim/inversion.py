"""Recovery of the two fractional orders from point observations.

Given a time series of the mobile concentration at one interior point,
the pair z = (alpha, gamma) is recovered by a homotopy-regularized
Levenberg-Marquardt iteration: a sigmoid weight kappa(j) blends the
regularized normal equations from an identity-dominated first phase into
plain Gauss-Newton as the iteration count grows.  Sensitivities come
from central differences of full forward solves, and iterates are
clamped to a closed sub-square of the admissible order set because the
forward problem degenerates on its boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .errors import ConfigError, InversionError, NumericalError, ValidationError
from .model import GridSpec, ModelParams, ObservationSeries
from .solver import extract_observation, solve_forward

__all__ = [
    "InversionConfig",
    "IterationRecord",
    "InversionResult",
    "ReplicateSummary",
    "add_noise",
    "homotopy_kappa",
    "sensitivity_jacobian",
    "lm_step",
    "invert_orders",
    "run_replicates",
]


@dataclass(frozen=True)
class InversionConfig:
    """Knobs of the homotopy-regularized iteration.

    Attributes
    ----------
    z0 : tuple
        Initial iterate (alpha0, gamma0); values outside the clamped
        admissible square are moved onto it before the first step, so
        the conventional corner starts (0,0) and (1,1) are legal.
    j0, sigma : int, float
        Midpoint and steepness of the sigmoid homotopy weight.
    max_iter : int
        Iteration cap.
    step_tol : float
        Stop when the update norm falls to or below this.
    jacobian_step : float
        Central-difference step for the order sensitivities.
    clamp_margin : float
        Distance eps kept from the order-set boundary; iterates live in
        [eps, 1-eps]^2.
    """

    z0: tuple[float, float] = (0.0, 0.0)
    j0: int = 5
    sigma: float = 0.9
    max_iter: int = 100
    step_tol: float = 1e-8
    jacobian_step: float = 1e-3
    clamp_margin: float = 0.01

    def __post_init__(self):
        if not (isinstance(self.j0, int) and self.j0 >= 1):
            raise ConfigError("j0 must be an integer >= 1")
        if not self.sigma > 0:
            raise ConfigError("sigma must be positive")
        if not (isinstance(self.max_iter, int) and self.max_iter >= 1):
            raise ConfigError("max_iter must be an integer >= 1")
        if not self.step_tol > 0:
            raise ConfigError("step_tol must be positive")
        if not 0.0 < self.jacobian_step <= 0.1:
            raise ConfigError("jacobian_step must lie in (0, 0.1]")
        if not 0.0 < self.clamp_margin < 0.2:
            raise ConfigError("clamp_margin must lie in (0, 0.2)")
        if len(self.z0) != 2 or not all(math.isfinite(v) for v in self.z0):
            raise ConfigError("z0 must be a finite pair (alpha0, gamma0)")


@dataclass(frozen=True)
class IterationRecord:
    """State of one iteration: iterate, weight, residual and step norms."""

    z: tuple[float, float]
    kappa: float
    residual_norm: float
    step_norm: float


@dataclass
class InversionResult:
    """Outcome of one order-recovery run.

    ``converged`` is True only for a step-norm stop; a residual-rise or
    iteration-cap stop still yields a usable ``z_inv`` but is flagged.
    ``rel_error`` is ||z_exact - z_inv||_2 / ||z_exact||_2 when the true
    orders were supplied, else None.
    """

    z_inv: tuple[float, float]
    rel_error: float | None
    iterations: int
    history: list[IterationRecord] = field(repr=False)
    converged: bool
    stop_reason: str


def add_noise(clean: ObservationSeries, delta: float, seed: int) -> ObservationSeries:
    """Perturb each sample by theta_k * delta, theta_k uniform on [-1, 1].

    The draw is independent per sample and fully determined by ``seed``;
    the noise level and seed are recorded on the returned series.
    """
    if not (math.isfinite(delta) and delta >= 0):
        raise ValidationError("noise level delta must be finite and nonnegative")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-1.0, 1.0, size=len(clean))
    return ObservationSeries(
        x0=clean.x0,
        times=clean.times,
        values=clean.values + theta * delta,
        noise_level=float(delta),
        seed=int(seed),
    )


def homotopy_kappa(j: int, j0: int, sigma: float) -> float:
    """Sigmoid weight 1/(1 + e^{sigma (j - j0)}), strictly decreasing in j."""
    if j < 0:
        raise ValidationError("iteration index j must be nonnegative")
    return float(expit(-sigma * (j - j0)))


def _clamp(z: np.ndarray, margin: float) -> np.ndarray:
    return np.clip(z, margin, 1.0 - margin)


def _observe(
    z: np.ndarray,
    p_base: ModelParams,
    g: GridSpec,
    times: np.ndarray,
    x0: float,
) -> np.ndarray:
    p = p_base.with_orders(float(z[0]), float(z[1]))
    return extract_observation(solve_forward(p, g), x0, times).values


def sensitivity_jacobian(
    z: tuple[float, float],
    p_base: ModelParams,
    g: GridSpec,
    obs_times: np.ndarray,
    x0: float,
    h_fd: float,
    clamp_margin: float = 0.01,
) -> np.ndarray:
    """Order sensitivities of the observed series, one column per order.

    Column i holds the central difference of the forward-solved series
    with respect to order i.  Perturbed points are clamped to the
    admissible square first and the difference is divided by the actual
    spread, so the stencil degrades gracefully to one-sided at a clamped
    corner; it never steps outside the set the solver accepts.
    """
    z = np.asarray(z, dtype=float)
    obs_times = np.asarray(obs_times, dtype=float)
    G = np.empty((obs_times.size, 2))
    for i in range(2):
        step = np.zeros(2)
        step[i] = h_fd
        z_plus = _clamp(z + step, clamp_margin)
        z_minus = _clamp(z - step, clamp_margin)
        spread = z_plus[i] - z_minus[i]
        if spread <= 0:
            raise InversionError(
                f"cannot difference order {i}: clamped perturbations coincide at {z[i]!r}"
            )
        G[:, i] = (
            _observe(z_plus, p_base, g, obs_times, x0)
            - _observe(z_minus, p_base, g, obs_times, x0)
        ) / spread
    return G


def lm_step(G: np.ndarray, residual: np.ndarray, kappa: float) -> np.ndarray:
    """Solve the regularized normal equations for the order update.

    ((1-kappa) G^T G + kappa I) dz = (1-kappa) G^T residual, a 2x2
    system.  kappa=1 returns the zero update; kappa=0 is plain
    Gauss-Newton and is the only case that can be singular, which is
    reported together with the smallest singular value of G.
    """
    G = np.asarray(G, dtype=float)
    residual = np.asarray(residual, dtype=float)
    if G.ndim != 2 or G.shape[1] != 2 or residual.shape != (G.shape[0],):
        raise ValidationError(
            f"need G of shape (n, 2) and residual of shape (n,), got {G.shape} and {residual.shape}"
        )
    if not 0.0 <= kappa <= 1.0:
        raise ValidationError("kappa must lie in [0, 1]")
    M = (1.0 - kappa) * (G.T @ G) + kappa * np.eye(2)
    rhs = (1.0 - kappa) * (G.T @ residual)
    try:
        dz = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        dz = np.full(2, np.nan)
    if not np.all(np.isfinite(dz)):
        smin = float(np.linalg.svd(G, compute_uv=False)[-1])
        raise InversionError(
            f"singular normal equations at kappa={kappa}; smallest singular "
            f"value of the sensitivity matrix is {smin:.3e}"
        )
    return dz


# A residual-rise stop only arms once the homotopy weight has decayed
# below this, i.e. once the iteration is essentially unregularized.
_KAPPA_QUIET = 0.01
_RISES_TO_STOP = 3


def invert_orders(
    obs: ObservationSeries,
    p_base: ModelParams,
    g: GridSpec,
    cfg: InversionConfig | None = None,
    z_exact: tuple[float, float] | None = None,
) -> InversionResult:
    """Recover (alpha, gamma) from one observation series.

    Each iteration solves the forward problem at the current iterate,
    forms the residual against the observations, builds the sensitivity
    matrix by central differences (four extra solves), and applies the
    homotopy-weighted update, clamping the result to the admissible
    square.  Stops on a small update norm (``converged``), on three
    consecutive residual-norm rises once the homotopy weight is spent
    (noise floor reached), or at the iteration cap.

    Raises
    ------
    InversionError
        On a non-finite residual; the partial ``history`` rides on the
        exception for post-mortem inspection.
    """
    cfg = cfg or InversionConfig()
    z = _clamp(np.asarray(cfg.z0, dtype=float), cfg.clamp_margin)
    history: list[IterationRecord] = []
    rises = 0
    prev_norm = math.inf
    stop_reason = "max_iter"
    converged = False

    for j in range(cfg.max_iter):
        xi = _observe(z, p_base, g, obs.times, obs.x0)
        residual = obs.values - xi
        if not np.all(np.isfinite(residual)):
            raise InversionError(
                f"non-finite residual at iteration {j} (z={tuple(z)!r})",
                history=history,
            )
        res_norm = float(np.linalg.norm(residual))
        kappa = homotopy_kappa(j, cfg.j0, cfg.sigma)
        G = sensitivity_jacobian(
            tuple(z), p_base, g, obs.times, obs.x0, cfg.jacobian_step, cfg.clamp_margin
        )
        dz = lm_step(G, residual, kappa)
        step_norm = float(np.linalg.norm(dz))
        z = _clamp(z + dz, cfg.clamp_margin)
        history.append(
            IterationRecord(
                z=(float(z[0]), float(z[1])),
                kappa=kappa,
                residual_norm=res_norm,
                step_norm=step_norm,
            )
        )
        if step_norm <= cfg.step_tol:
            stop_reason = "step_tol"
            converged = True
            break
        if kappa < _KAPPA_QUIET:
            rises = rises + 1 if res_norm > prev_norm else 0
            if rises >= _RISES_TO_STOP:
                stop_reason = "residual_rise"
                break
        prev_norm = res_norm

    z_inv = (float(z[0]), float(z[1]))
    rel_error = None
    if z_exact is not None:
        exact = np.asarray(z_exact, dtype=float)
        rel_error = float(np.linalg.norm(exact - z) / np.linalg.norm(exact))
    return InversionResult(
        z_inv=z_inv,
        rel_error=rel_error,
        iterations=len(history),
        history=history,
        converged=converged,
        stop_reason=stop_reason,
    )


@dataclass
class ReplicateSummary:
    """Noise-level aggregate over repeated inversions of one problem.

    Means are taken over the successful replicates only; ``failures``
    counts replicates that aborted with a numerical error.  ``z_mean``
    and the other means are None when every replicate failed.
    """

    delta: float
    replicates: int
    failures: int
    z_mean: tuple[float, float] | None
    rel_error_mean: float | None
    iterations_mean: float | None
    results: list[InversionResult | None] = field(repr=False, default_factory=list)

    @property
    def successes(self) -> int:
        return self.replicates - self.failures


def _noise_key(delta: float) -> int:
    """The noise level's entry in its seed stream: delta in units of 1e-9."""
    return int(round(delta * 1e9))


def _replicate_seeds(base_seed: int, delta: float, replicates: int) -> list[int]:
    # One deterministic child stream per (base seed, noise level) pair so
    # noise levels do not share perturbations and reruns are bit-stable.
    ss = np.random.SeedSequence([int(base_seed), _noise_key(delta)])
    return [int(s) for s in ss.generate_state(replicates)]


def run_replicates(
    spec,
    replicates: int,
    delta: float = 0.0,
    clean: ObservationSeries | None = None,
) -> ReplicateSummary:
    """Average repeated noisy inversions of one synthetic problem.

    ``spec`` is any object with the experiment-descriptor attributes
    ``params`` (true orders included), ``grid``, ``x0``, ``inversion``,
    and ``seed``.  Each replicate perturbs the same clean series with an
    independent seed, inverts, and the recovered orders, relative errors
    and iteration counts are averaged over the replicates that finish;
    numerical failures are counted, not raised.

    Pass ``clean`` to reuse an already-computed noise-free series (it
    must match the spec's grid and observation point).
    """
    if replicates < 1:
        raise ValidationError("replicates must be at least 1")
    if clean is None:
        sol = solve_forward(spec.params, spec.grid)
        clean = extract_observation(sol, spec.x0)
    z_exact = (spec.params.alpha, spec.params.gamma)

    results: list[InversionResult | None] = []
    for seed in _replicate_seeds(spec.seed, delta, replicates):
        noisy = add_noise(clean, delta, seed)
        try:
            results.append(
                invert_orders(noisy, spec.params, spec.grid, spec.inversion, z_exact)
            )
        except NumericalError:
            results.append(None)

    good = [r for r in results if r is not None]
    failures = len(results) - len(good)
    if not good:
        return ReplicateSummary(
            delta=float(delta),
            replicates=replicates,
            failures=failures,
            z_mean=None,
            rel_error_mean=None,
            iterations_mean=None,
            results=results,
        )
    z_mean = np.mean([r.z_inv for r in good], axis=0)
    return ReplicateSummary(
        delta=float(delta),
        replicates=replicates,
        failures=failures,
        z_mean=(float(z_mean[0]), float(z_mean[1])),
        rel_error_mean=float(np.mean([r.rel_error for r in good])),
        iterations_mean=float(np.mean([r.iterations for r in good])),
        results=results,
    )
