"""Recovery of the two fractional orders from point observations.

Given a time series of the mobile concentration at one interior point,
the pair z = (alpha, gamma) is recovered by a homotopy-regularized
Levenberg-Marquardt iteration: a sigmoid weight kappa(j) blends the
regularized normal equations from an identity-dominated first phase into
plain Gauss-Newton as the iteration count grows.  Each iteration runs one
tangent-linear march, which gives the forward series and its exact
sensitivities to both orders at once, and iterates are clamped to a closed
sub-square of the admissible set because the forward problem degenerates
on its boundary.  A table row, :func:`run_replicates`, computes its
clean series once and inverts noisy copies of it.  The inversions of
one table all start at the same iterate, so they share its march: the
last one is kept.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InversionError, NumericalError, ValidationError
from .model import (
    GridSpec, ModelParams, ObservationSeries, _check_count, _check_params_type, _fits_double,
    _is_finite, _is_integer, _is_number, _is_pair, _numbers,
)
from .solver import _tangent_march, _validate_for_solve, extract_observation, solve_forward

__all__ = [
    "InversionConfig",
    "IterationRecord",
    "InversionResult",
    "ReplicateSummary",
    "STOP_REASONS",
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
        Stop when the undamped update norm, ||dz|| / (1 - kappa), falls
        below this; finite.
    clamp_margin : float
        Distance eps kept from the order-set boundary; iterates live in
        [eps, 1-eps]^2.
    """

    z0: tuple[float, float] = (0.0, 0.0)
    j0: int = 5
    sigma: float = 0.9
    max_iter: int = 100
    step_tol: float = 1e-8
    clamp_margin: float = 0.01

    def __post_init__(self):
        _check_count(self.j0, "j0", 1, ConfigError)
        if not (_is_finite(self.sigma) and self.sigma > 0):
            raise ConfigError("sigma must be positive and finite")
        _check_count(self.max_iter, "max_iter", 1, ConfigError)
        if not (_is_finite(self.step_tol) and self.step_tol > 0):
            raise ConfigError("step_tol must be positive and finite")
        if not (_is_number(self.clamp_margin) and 0.0 < self.clamp_margin < 0.2):
            raise ConfigError("clamp_margin must lie in (0, 0.2)")
        if not (_is_pair(self.z0) and all(map(_is_finite, self.z0))):
            raise ConfigError("z0 must be a finite pair (alpha0, gamma0)")


@dataclass(frozen=True)
class IterationRecord:
    """One iteration, recorded at the iterate ``z`` it marched at.

    Its homotopy weight, residual norm and the norm of the step taken from
    ``z``; ``sigma_min`` is the smallest singular value of the sensitivity
    matrix G at ``z``, near zero when the order columns are nearly collinear.
    """

    z: tuple[float, float]
    kappa: float
    residual_norm: float
    step_norm: float
    sigma_min: float


@dataclass
class InversionResult:
    """Outcome of one order-recovery run.

    ``iterations`` counts the ``history`` records.  ``converged`` is True
    only for a step-norm stop; a residual-rise or iteration-cap stop still
    yields a usable ``z_inv`` but is flagged.  ``rel_error`` is
    ||z_exact - z_inv||_2 / ||z_exact||_2 when the true orders were
    supplied, else None.
    """

    z_inv: tuple[float, float]
    rel_error: float | None
    history: list[IterationRecord] = field(repr=False)
    stop_reason: str

    @property
    def iterations(self) -> int:
        return len(self.history)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "step_tol"


def _check_noise_level(delta) -> None:
    if not (_is_finite(delta) and delta >= 0):
        raise ValidationError("noise level delta must be finite and nonnegative")


def add_noise(clean: ObservationSeries, delta: float, seed: int) -> ObservationSeries:
    """Perturb each sample by theta_k * delta, theta_k uniform on [-1, 1].

    The draw is independent per sample and fully determined by ``seed``;
    the noise level and seed are recorded on the returned series.
    """
    _check_noise_level(delta)
    if not (_is_integer(seed) and seed >= 0):
        raise ValidationError("noise seed must be an integer >= 0")
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
    d = j - j0
    if isinstance(d, int) and not _fits_double(d):  # beyond a double: e^x is 0 or inf
        x = math.inf if d > 0 else -math.inf
    else:
        x = sigma * d
    try:
        return 1.0 / (1.0 + math.exp(x))
    except OverflowError:  # e^x overflows a double: the weight is 1/(1 + inf) = 0.0
        return 0.0


def sensitivity_jacobian(
    z: tuple[float, float],
    p_base: ModelParams,
    g: GridSpec,
    obs_times: np.ndarray,
    x0: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Observed series u1(x0, t; z) and its order sensitivities, ``(series, G)``.

    Column k of G is d u1(x0, t) / d z_k of the discrete march, exact up
    to roundoff, and the series is the march of :func:`solve_forward` up
    to roundoff; both come from one tangent-linear march.  An order
    outside the solver's order set (0, 1] raises ParameterError.
    """
    base = p_base.with_orders(*z)
    _validate_for_solve(base)
    return _observed_march(base, g, g.interior_node(x0), g.time_indices(obs_times))


def _observed_march(base: ModelParams, g: GridSpec, i: int, idx) -> tuple[np.ndarray, np.ndarray]:
    # (series, G) at node i and time indices idx: G stays the column slice
    # of the row-gathered (n_obs, 3) array, whose layout lm_step's last bits follow.
    observed = _tangent_march(base, g)[idx, :, i - 1]
    return observed[:, 0], observed[:, 1:]


@functools.lru_cache(maxsize=1)
def _first_march(base: ModelParams, g: GridSpec, i: int, idx: tuple[int, ...]):
    """The observed march at the first iterate, shared by every inversion of a table.

    Each inversion starts at the clamped ``z0`` of its config, and a
    table inverts many series of one problem, so only the first
    inversion of a table marches there.  Keyed on everything the march
    reads; the arrays are read-only, since every caller shares them.
    """
    series, G = _observed_march(base, g, i, list(idx))
    series.flags.writeable = G.flags.writeable = False
    return series, G


def lm_step(G: np.ndarray, residual: np.ndarray, kappa: float) -> np.ndarray:
    """Solve the regularized normal equations for the order update.

    ((1-kappa) G^T G + kappa I) dz = (1-kappa) G^T residual, a 2x2
    system.  kappa=1 returns the zero update; kappa=0 is plain
    Gauss-Newton and is the only case that can be singular, which is
    reported together with the smallest singular value of G.
    """
    G = _numbers(G, "G must be an array of numbers")
    residual = _numbers(residual, "residual must be an array of numbers")
    if G.ndim != 2 or G.shape[1] != 2 or residual.shape != (G.shape[0],):
        raise ValidationError(
            f"need G of shape (n, 2) and residual of shape (n,), got {G.shape} and {residual.shape}"
        )
    if not (_is_number(kappa) and 0.0 <= kappa <= 1.0):
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

    Each iteration takes the forward series (hence the residual) and the
    sensitivity matrix from one tangent-linear march, as
    :func:`sensitivity_jacobian` returns them, and applies the
    homotopy-weighted update, clamping the result to the admissible
    square.  The parameters, the observation node and the times are
    checked once, before the first march, since every iterate lies in
    the square.  The march at the first iterate, the clamped ``z0``, is
    the one a previous call at the same start, problem and observation
    grid ran, when there was one.  Stops when the undamped step ||dz|| / (1 - kappa)
    falls below ``step_tol`` (``converged``; a weight of 1 never does), on
    three consecutive residual-norm rises once the homotopy weight is
    spent (noise floor reached), or at the iteration cap.

    Raises
    ------
    ValidationError
        Before any march, unless ``z_exact`` is None or a finite pair of nonzero norm.
    TypeError
        Before any march, when ``p_base`` is not a ModelParams.
    ParameterError, GridError
        Before any march, for inadmissible parameters, or an observation
        point or times off the grid.
    InversionError
        On a non-finite residual, naming the iteration and its iterate.
    """
    if z_exact is not None and not (_is_pair(z_exact) and all(map(_is_finite, z_exact))
                                    and 0.0 < np.linalg.norm(z_exact) < math.inf):
        raise ValidationError(f"z_exact must be a finite pair with a nonzero norm, not {z_exact!r}")
    cfg = cfg or InversionConfig()
    lo, hi = cfg.clamp_margin, 1.0 - cfg.clamp_margin
    z = np.clip(np.asarray(cfg.z0, dtype=float), lo, hi)
    # Every iterate lies in [lo, hi]^2, inside the order set: the checks
    # of the first iteration hold for all.
    _check_params_type(p_base)
    first = p_base.with_orders(*z)
    _validate_for_solve(first)
    i, idx = g.interior_node(obs.x0), g.time_indices(obs.times)
    history: list[IterationRecord] = []
    rises = 0
    prev_norm = math.inf
    stop_reason = "max_iter"

    for j in range(cfg.max_iter):
        if j:
            series, G = _observed_march(p_base.with_orders(*z), g, i, idx)
        else:
            series, G = _first_march(first, g, i, tuple(idx.tolist()))
        residual = obs.values - series
        if not np.all(np.isfinite(residual)):
            raise InversionError(f"non-finite residual at iteration {j} (z={tuple(z)!r})")
        res_norm = float(np.linalg.norm(residual))
        kappa = homotopy_kappa(j, cfg.j0, cfg.sigma)
        dz = lm_step(G, residual, kappa)
        step_norm = float(np.linalg.norm(dz))
        history.append(
            IterationRecord(
                z=(float(z[0]), float(z[1])),
                kappa=kappa,
                residual_norm=res_norm,
                step_norm=step_norm,
                sigma_min=float(np.linalg.svd(G, compute_uv=False)[-1]),
            )
        )
        z = np.clip(z + dz, lo, hi)
        if step_norm < cfg.step_tol * (1.0 - kappa):
            stop_reason = "step_tol"
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
        z_inv=z_inv, rel_error=rel_error, history=history, stop_reason=stop_reason
    )


# The stop reasons of invert_orders, in the order a table counts them.
STOP_REASONS = ("step_tol", "residual_rise", "max_iter")


@dataclass
class ReplicateSummary:
    """Noise-level aggregate over repeated inversions of one problem.

    Means are taken over the successful replicates only; ``failures``
    counts replicates that aborted with a numerical error.  ``z_mean``
    and the other means are None when every replicate failed.
    ``stops`` counts the successful replicates by
    :attr:`InversionResult.stop_reason`, one entry per reason in
    :data:`STOP_REASONS` order.
    """

    delta: float
    replicates: int
    failures: int
    z_mean: tuple[float, float] | None
    rel_error_mean: float | None
    iterations_mean: float | None
    stops: dict[str, int] = field(default_factory=lambda: dict.fromkeys(STOP_REASONS, 0))


def _noise_key(delta: float, error=ValidationError) -> int:
    """The noise level's entry in its seed stream: delta in units of 1e-9."""
    if not _fits_double(delta * 1e9):
        raise error(f"noise level {delta:g} is too large to key a seed stream")
    return int(round(delta * 1e9))


def _replicate_seeds(base_seed: int, delta: float, replicates: int) -> list[int]:
    # One deterministic child stream per (base seed, noise level) pair so
    # noise levels do not share perturbations and reruns are bit-stable.
    ss = np.random.SeedSequence([int(base_seed), _noise_key(delta)])
    try:
        return [int(s) for s in ss.generate_state(replicates)]
    except ValueError:  # numpy refuses a state array of that many words
        raise ValidationError(f"replicates={replicates} is too many seeds for numpy") from None


def run_replicates(spec, delta: float = 0.0) -> ReplicateSummary:
    """Average repeated noisy inversions of one synthetic problem: one table row.

    ``spec`` is any object with the experiment-descriptor attributes
    ``params`` (true orders included), ``grid``, ``x0``, ``replicates``,
    ``inversion`` and ``seed``.  The row marches its own clean series and
    runs ``spec.replicates`` replicates, or one at a noise-free level
    (noise-free replicates are identical by determinism).  Each replicate
    perturbs the clean series with an independent seed and inverts it;
    the recovered orders, relative errors and iteration counts are
    averaged over the replicates that finish, and numerical failures are
    counted, not raised.  The level and the count are checked, and the
    seeds drawn, before the clean march.
    """
    _check_noise_level(delta)
    replicates = 1 if delta == 0 else spec.replicates
    _check_count(replicates, "replicates", 1, ValidationError)
    seeds = _replicate_seeds(spec.seed, delta, replicates)
    clean = extract_observation(solve_forward(spec.params, spec.grid), spec.x0)
    z_exact = (spec.params.alpha, spec.params.gamma)

    good: list[InversionResult] = []
    for seed in seeds:
        noisy = add_noise(clean, delta, seed)
        try:
            good.append(invert_orders(noisy, spec.params, spec.grid, spec.inversion, z_exact))
        except NumericalError:
            pass
    z_mean = rel_error_mean = iterations_mean = None
    if good:
        z = np.mean([r.z_inv for r in good], axis=0)
        z_mean = (float(z[0]), float(z[1]))
        rel_error_mean = float(np.mean([r.rel_error for r in good]))
        iterations_mean = float(np.mean([r.iterations for r in good]))
    return ReplicateSummary(
        delta=float(delta),
        replicates=replicates,
        failures=replicates - len(good),
        z_mean=z_mean,
        rel_error_mean=rel_error_mean,
        iterations_mean=iterations_mean,
        stops={reason: sum(r.stop_reason == reason for r in good) for reason in STOP_REASONS},
    )
