"""Synthetic order-recovery experiments and their result tables.

An experiment fixes one transport problem with known orders and sweeps
a list of noise levels; each level is one table row, which generates
the clean observation series once and runs repeated noisy inversions
of it.  Three builtin descriptors cover the standard benchmark
configurations; arbitrary ones come from JSON configs via
:mod:`fracmim.io`, which also writes a table's files.  A table holds its
spec, so the config sidecar written beside it reruns it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from .errors import ConfigError, ValidationError
from .inversion import STOP_REASONS, InversionConfig, ReplicateSummary, _noise_key, run_replicates
from .laplace import _TIMES, ContourQuadrature, _time_in_range
from .model import (
    GridSpec, ModelParams, _check_count, _is_finite, _is_number, _is_pair,
    validate_params,
)

__all__ = [
    "ExperimentSpec",
    "ExperimentTable",
    "builtin_experiment",
    "BUILTIN_EXPERIMENTS",
    "run_experiment",
    "DEFAULT_GRID",
    "DEFAULT_NOISE_LEVELS",
]

# Desk-scale defaults: observation point on a node of an even grid, final
# time long enough for the mobile front to pass the midpoint.
DEFAULT_GRID = GridSpec(m=40, n=200, T=100.0)
DEFAULT_X0 = 0.5
DEFAULT_NOISE_LEVELS = (0.05, 0.01, 0.001, 0.0001, 0.0)
DEFAULT_REPLICATES = 10
DEFAULT_SEED = 1234


@dataclass(frozen=True)
class ExperimentSpec:
    """Complete description of one synthetic recovery experiment.

    ``params`` carries the true orders used to generate the data.
    ``exact_orders`` is the ground truth that ``fracmim invert`` reports
    its error against on externally supplied observations; with None it
    reports no error, not one against the orders in ``params``.
    """

    params: ModelParams
    name: str = "custom"
    grid: GridSpec = DEFAULT_GRID
    x0: float = DEFAULT_X0
    noise_levels: tuple[float, ...] = DEFAULT_NOISE_LEVELS
    replicates: int = DEFAULT_REPLICATES
    inversion: InversionConfig = InversionConfig()
    quadrature: ContourQuadrature = ContourQuadrature()
    seed: int = DEFAULT_SEED
    reference_points: tuple[tuple[float, float], ...] = ()
    exact_orders: tuple[float, float] | None = None
    out_dir: str | None = None

    def __post_init__(self):
        validate_params(self.params)
        if not (_is_number(self.x0) and 0.0 < self.x0 < 1.0):
            raise ConfigError("x0 must lie strictly inside (0,1)")
        self.grid.interior_node(self.x0)
        if not isinstance(self.noise_levels, (list, tuple)):
            raise ConfigError("noise_levels must be finite and nonnegative")
        first: dict[str, int] = {}
        keyed: dict[int, float] = {}
        for j, d in enumerate(self.noise_levels):
            if not (_is_finite(d) and d >= 0):
                raise ConfigError("noise_levels must be finite and nonnegative")
            # The label names the level's make-obs file and table row.
            k = first.setdefault(f"{d:g}", j)
            if k != j:
                raise ConfigError(
                    f"noise levels {self.noise_levels[k]!r} and {d!r} share the label "
                    f"{d:g}, which names one observation file and one table row"
                )
            # A new label on an old key (even 0.0 after -0.0) replays its noise draw.
            key = _noise_key(d, ConfigError)
            if key in keyed:
                raise ConfigError(
                    f"noise levels {keyed[key]:g} and {d:g} share one seed stream: levels "
                    "are keyed to the nearest multiple of 1e-9"
                )
            keyed[key] = d
        _check_count(self.replicates, "replicates", 1, ConfigError)
        _check_count(self.seed, "seed", 0, ConfigError)
        exact = [] if self.exact_orders is None else [self.exact_orders]
        if not (
            isinstance(self.reference_points, (list, tuple))
            and all(map(_is_pair, [*self.reference_points, *exact]))
        ):
            raise ConfigError("reference_points and exact_orders must hold pairs of numbers")
        if exact and not all(0.0 < v <= 1.0 for v in self.exact_orders):
            raise ConfigError(f"exact_orders {self.exact_orders!r} must be orders in (0, 1]")
        for x, t in self.reference_points:
            if not (0.0 <= x <= 1.0 and _time_in_range(t)):
                raise ConfigError(
                    f"reference point ({x!r}, {t!r}) needs x in [0,1] and a positive finite t"
                    f" in [{_TIMES[0]:g}, {_TIMES[1]:g}]"
                )

    def with_seed(self, seed: int) -> "ExperimentSpec":
        return replace(self, seed=seed)


def _standard(name, P, omega, lam, mu, alpha, gamma, z0=(0.0, 0.0)) -> ExperimentSpec:
    return ExperimentSpec(
        name=name,
        params=ModelParams(
            P=P, R1=2.0, R2=2.0, beta=0.5, omega=omega, lam=lam, mu=mu,
            alpha=alpha, gamma=gamma,
        ),
        inversion=InversionConfig(z0=z0),
    )


BUILTIN_EXPERIMENTS: dict[str, ExperimentSpec] = {
    "ex51": _standard("ex51", P=5.0, omega=1.5, lam=0.05, mu=0.1, alpha=0.8, gamma=0.25),
    "ex52": _standard("ex52", P=1.0, omega=1.5, lam=0.05, mu=0.1, alpha=0.75, gamma=0.75),
    # The low-diffusion, strongly-degrading configuration is unstable
    # from a near-zero start; its standard initial iterate is the upper
    # clamped corner.
    "ex53": _standard(
        "ex53", P=1.0, omega=0.5, lam=0.05, mu=0.5, alpha=0.3, gamma=0.8,
        z0=(1.0, 1.0),
    ),
}


def builtin_experiment(name: str) -> ExperimentSpec:
    """Look up a builtin experiment descriptor by id."""
    try:
        return BUILTIN_EXPERIMENTS[name]
    except KeyError:
        valid = ", ".join(sorted(BUILTIN_EXPERIMENTS))
        raise ValidationError(
            f"unknown experiment id {name!r}; valid ids: {valid}"
        ) from None


@dataclass
class ExperimentTable:
    """Noise-sweep results for one experiment, printable as markdown.

    Each row is the :class:`ReplicateSummary` of one noise level of ``spec``.
    """

    spec: ExperimentSpec
    rows: list[ReplicateSummary] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.spec.name

    def to_markdown(self) -> str:
        p = self.spec.params
        lines = [
            f"Recovered orders for {self.name}: "
            f"true (alpha, gamma) = ({p.alpha:.8f}, {p.gamma:.8f})",
            "",
            "| noise level | recovered orders (mean) | relative error (mean) | iterations (mean) "
            f"| stops ({' / '.join(STOP_REASONS)}) |",
            "|---|---|---|---|---|",
        ]
        for r in self.rows:
            if r.z_mean is None:
                cells = [f"FAILED ({r.failures}/{r.replicates})", "--", "--"]
            else:
                z = f"({r.z_mean[0]:.8f}, {r.z_mean[1]:.8f})"
                if r.failures:
                    z += f" [{r.failures}/{r.replicates} failed]"
                cells = [z, f"{r.rel_error_mean:.2e}", f"{r.iterations_mean:.1f}"]
            stops = " / ".join(str(r.stops[reason]) for reason in STOP_REASONS)
            lines.append(f"| {r.delta:g} | {cells[0]} | {cells[1]} | {cells[2]} | {stops} |")
        return "\n".join(lines) + "\n"


def run_experiment(
    spec: ExperimentSpec,
    progress: Callable[[str], None] | None = None,
) -> ExperimentTable:
    """Run the full noise sweep for one experiment descriptor.

    Each noise level is one :func:`run_replicates` row, which computes the
    clean series once per row and runs a single replicate at a zero
    level.  Cell failures are recorded in the table rather than raised,
    so one unstable level cannot abort the sweep.
    """
    table = ExperimentTable(spec)
    for delta in spec.noise_levels:
        row = run_replicates(spec, delta)
        table.rows.append(row)
        if progress is not None:
            err = "--" if row.rel_error_mean is None else f"{row.rel_error_mean:.2e}"
            progress(
                f"{spec.name}: delta={delta:g} done "
                f"({row.failures}/{row.replicates} failed, mean rel err {err})"
            )
    return table
