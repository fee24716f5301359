"""Parameters, grids, solutions and observations.

The transport model couples a mobile and an immobile concentration on the
unit interval through first-order mass transfer, with Caputo time
derivatives of order ``alpha`` (mobile) and ``gamma`` (immobile), both in
(0, 1).  This module holds the value objects shared across the package:
parameter set, space-time grid, solution container, point observations.

The parameter set, the grid and the observation series are frozen after
construction; a ``SolutionGrid`` holds its two fields as plain numpy arrays,
which the package never writes after the march fills them.  All functions
are pure.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, ParameterError, ValidationError

__all__ = [
    "ModelParams",
    "GridSpec",
    "SolutionGrid",
    "ObservationSeries",
    "validate_params",
]


@dataclass(frozen=True)
class ModelParams:
    """Physical constants and fractional orders of the transport model.

    Attributes
    ----------
    P : float
        Peclet number; 1/P is the dimensionless dispersion coefficient.
    R1, R2 : float
        Retardation coefficients of the mobile and immobile zones.
    beta : float
        Partitioning coefficient between the two zones, in (0, 1).
    omega : float
        First-order mass transfer rate between the zones.
    lam : float
        Degradation coefficient in the mobile zone (the model's lambda).
    mu : float
        Degradation coefficient in the immobile zone.
    alpha : float
        Fractional time-derivative order in the mobile zone, in (0, 1).
    gamma : float
        Fractional time-derivative order in the immobile zone, in (0, 1).
    """

    P: float
    R1: float
    R2: float
    beta: float
    omega: float
    lam: float
    mu: float
    alpha: float
    gamma: float

    def with_orders(self, alpha: float, gamma: float) -> "ModelParams":
        """Return a copy with the fractional orders replaced."""
        return dataclasses.replace(self, alpha=float(alpha), gamma=float(gamma))


def _is_number(v) -> bool:
    # bool is an int subclass; a flag passed where a number belongs is an error.
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_integer(v) -> bool:
    return _is_number(v) and isinstance(v, int)


def _fits_double(v) -> bool:
    # math.isfinite raises OverflowError on an int too large for a double.
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _check_count(v, name: str, lo: int, error) -> None:
    # A count is an int >= lo, not a bool, that a JSON sidecar can hold.
    if not (_is_integer(v) and v >= lo):
        raise error(f"{name} must be an integer >= {lo}")
    if not _fits_double(v):
        raise error(f"{name} is too large for a float")


def _numbers(v, message: str, error=ValidationError, dtype=float) -> np.ndarray:
    # v as a dtype array, not copied if it is one.  Text, bytes, bools, a ragged list, an
    # int beyond a double or complex numbers for a real dtype raise error(message).
    try:
        a = np.asarray(v)  # ints beyond int64, and None, give an object array
        ok = a.dtype.kind in "iuf" + np.dtype(dtype).kind
        if ok or a.dtype.kind == "O" and all(type(e) in (int, float, complex) for e in a.flat):
            return a.astype(dtype, copy=False)
    except (OverflowError, TypeError, ValueError):
        pass
    raise error(message)


def _is_finite(v) -> bool:
    return _is_number(v) and _fits_double(v)


def _is_pair(v) -> bool:
    return isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_number, v))


# Admissibility checks, in reporting order.  Each entry is
# (predicate on ModelParams, message for the first violated bound).
_ADMISSIBILITY = [
    (lambda p: 0.0 < p.alpha < 1.0, "alpha must lie in (0,1)"),
    (lambda p: 0.0 < p.gamma < 1.0, "gamma must lie in (0,1)"),
    (lambda p: 0.0 < p.beta < 1.0, "beta must lie in (0,1)"),
    (lambda p: p.R1 >= 1.0, "R1 must be at least 1"),
    (lambda p: p.R2 >= 1.0, "R2 must be at least 1"),
    (lambda p: p.P > 0.0, "P must be positive"),
    (lambda p: p.omega > 0.0, "omega must be positive"),
    (lambda p: p.lam > 0.0, "lam must be positive"),
    (lambda p: p.mu > 0.0, "mu must be positive"),
]


def validate_params(p: ModelParams) -> ModelParams:
    """Check the natural admissibility condition on all parameters.

    Every bound is strict where the condition is stated with a strict
    inequality; boundary values (e.g. ``alpha == 1``) are rejected rather
    than nudged inward.

    Returns
    -------
    ModelParams
        The input, unchanged, when every bound holds.

    Raises
    ------
    ParameterError
        Naming the first violated bound.
    """
    for field in dataclasses.fields(p):
        v = getattr(p, field.name)
        if not _is_finite(v):
            raise ParameterError(f"{field.name} must be a finite number")
    for check, message in _ADMISSIBILITY:
        if not check(p):
            raise ParameterError(message)
    return p


@dataclass(frozen=True)
class GridSpec:
    """Uniform space-time grid on [0,1] x [0,T].

    ``m`` space intervals of width ``h = 1/m`` and ``n`` time steps of
    size ``tau = T/n``.
    """

    m: int
    n: int
    T: float

    def __post_init__(self):
        _check_count(self.m, "m", 3, GridError)
        _check_count(self.n, "n", 1, GridError)
        if not (_is_finite(self.T) and self.T > 0):
            raise GridError("T must be a positive finite number")

    @property
    def h(self) -> float:
        """Space step 1/m."""
        return 1.0 / self.m

    @property
    def tau(self) -> float:
        """Time step T/n."""
        return self.T / self.n

    def interior_node(self, x0: float) -> int:
        """Index i of the interior space node x0 = i*h.

        A point off the grid is rejected with the two nearest nodes
        named, since silently snapping would bias whatever is read there.
        """
        pos = x0 * self.m
        if not _fits_double(pos):
            raise GridError(f"x0={x0!r} must be an interior node, inside (0,1)")
        i = int(round(pos))
        if abs(pos - i) > 1e-9 * self.m:
            lo = math.floor(pos) * self.h
            hi = math.ceil(pos) * self.h
            raise GridError(f"x0={x0!r} is not a grid node; nearest nodes are {lo!r} and {hi!r}")
        if not 1 <= i <= self.m - 1:
            raise GridError(f"x0={x0!r} must be an interior node, inside (0,1)")
        return i

    def time_indices(self, times: np.ndarray) -> np.ndarray:
        """Indices k in 1..n of the grid times t_k = k*tau; others raise GridError."""
        times = _numbers(times, "times not aligned with grid times: not all floats", GridError)
        # A huge time gives an infinite ratio; it and NaN fail the range test.
        with np.errstate(over="ignore", invalid="ignore"):
            ratio = times / self.tau
            near = np.round(ratio)
            ok = (near >= 1) & (near <= self.n) & (np.abs(ratio - near) <= 1e-9 * self.n)
        if not ok.all():
            raise GridError(f"times not aligned with grid times: {times[~ok][:3].tolist()}")
        return near.astype(int)

    def space_nodes(self) -> np.ndarray:
        """Grid points x_i = i*h, i = 0..m."""
        return np.arange(self.m + 1) * self.h

    def time_nodes(self) -> np.ndarray:
        """Grid times t_k = k*tau, k = 0..n."""
        return np.arange(self.n + 1) * self.tau


@dataclass
class SolutionGrid:
    """Mobile and immobile concentration fields on the full grid.

    ``u1`` and ``u2`` have shape (m+1, n+1), indexed [space, time].
    The stored fields satisfy the discrete side conditions: zero initial
    data, inlet value on the mobile boundary column for k >= 1, and the
    reflected (impermeable) values at the outflow node.
    """

    u1: np.ndarray
    u2: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        expected = (self.grid.m + 1, self.grid.n + 1)
        if self.u1.shape != expected or self.u2.shape != expected:
            raise GridError(
                f"solution arrays must have shape {expected}, "
                f"got {self.u1.shape} and {self.u2.shape}"
            )

    def boundary_residual(self) -> float:
        """Largest violation of the discrete boundary identities.

        Checks the initial column, the inlet column (against its own
        stored value at k=1, so it is inlet-scale agnostic), and the
        reflection identities at x = 1.  Used by tests as a post-hoc
        invariant check on solver output.
        """
        m = self.grid.m
        res = max(
            float(np.max(np.abs(self.u1[:, 0]))),
            float(np.max(np.abs(self.u2[:, 0]))),
            float(np.max(np.abs(self.u2[0, 1:]))) if self.grid.n >= 1 else 0.0,
            float(np.max(np.abs(self.u1[m, :] - self.u1[m - 1, :]))),
            float(np.max(np.abs(self.u2[m, :] - self.u2[m - 1, :]))),
        )
        if self.grid.n >= 2:
            res = max(res, float(np.max(np.abs(self.u1[0, 2:] - self.u1[0, 1]))))
        return res


@dataclass(frozen=True)
class ObservationSeries:
    """Time series of the mobile concentration at one interior point.

    Attributes
    ----------
    x0 : float
        Observation point, strictly inside (0, 1), on a grid node.
    times : np.ndarray
        Finite, positive, strictly increasing time stamps t_1..t_n, n >= 1.
    values : np.ndarray
        Mobile-zone samples u1(x0, t_k).
    noise_level : float
        Amplitude of the uniform perturbation applied (0 for clean data).
    seed : int | None
        RNG seed used to draw the perturbation, recorded for replay.
    """

    x0: float
    times: np.ndarray
    values: np.ndarray
    noise_level: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        times = _numbers(self.times, "times must be finite, positive and strictly increasing")
        values = _numbers(self.values, "observation values must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or values.shape != times.shape:
            raise ValidationError("times and values must be 1-D arrays of equal length")
        if times.size == 0:
            raise ValidationError("an observation series needs at least one sample")
        if not (np.all(np.isfinite(times)) and times[0] > 0 and np.all(np.diff(times) > 0)):
            raise ValidationError("times must be finite, positive and strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValidationError("observation values must be finite")
        if not (_is_number(self.x0) and 0.0 < self.x0 < 1.0):
            raise ValidationError(f"x0 must be a finite number inside (0, 1), got {self.x0!r}")
        if not (_is_finite(self.noise_level) and self.noise_level >= 0):
            raise ValidationError("noise_level must be finite and nonnegative")
        if not (self.seed is None or _is_integer(self.seed)):
            raise ValidationError(f"seed must be an integer or None, got {self.seed!r}")

    def __len__(self) -> int:
        return self.times.size
