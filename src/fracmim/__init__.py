"""Fractional-order mobile-immobile transport: solver, reference, inversion.

A two-zone solute transport model with Caputo time derivatives of order
alpha (mobile) and gamma (immobile) on the unit interval.  The package
provides three independent capabilities that check one another:

* an implicit L1 finite-difference march (:mod:`fracmim.solver`),
* the closed-form Laplace-domain solution with contour-quadrature
  inversion (:mod:`fracmim.laplace`),
* recovery of the order pair from noisy point observations by a
  homotopy-regularized Levenberg-Marquardt iteration
  (:mod:`fracmim.inversion`),

plus experiment descriptors/tables (:mod:`fracmim.experiments`), file
formats (:mod:`fracmim.io`), and a CLI (``fracmim``).  This namespace
holds the user API; the building blocks behind it (scheme constants,
the block system, the transformed profile, the LM step, ...) stay
importable from their own modules.
"""

from .errors import (
    ConfigError,
    FracmimError,
    GridError,
    InversionError,
    NumericalError,
    ParameterError,
    QuadratureError,
    SolverError,
    ValidationError,
)
from .experiments import (
    BUILTIN_EXPERIMENTS,
    ExperimentSpec,
    ExperimentTable,
    builtin_experiment,
    run_experiment,
)
from .io import (
    config_document,
    load_config,
    parse_config,
    read_csv,
    read_observation,
    write_observation,
)
from .inversion import (
    InversionConfig,
    InversionResult,
    ReplicateSummary,
    add_noise,
    invert_orders,
    run_replicates,
)
from .laplace import ContourQuadrature, invert_with_error
from .model import GridSpec, ModelParams, ObservationSeries, SolutionGrid
from .solver import extract_observation, solve_forward

__version__ = "0.1.0"

__all__ = [
    "FracmimError",
    "ValidationError",
    "ParameterError",
    "GridError",
    "ConfigError",
    "NumericalError",
    "SolverError",
    "QuadratureError",
    "InversionError",
    "ModelParams",
    "GridSpec",
    "SolutionGrid",
    "ObservationSeries",
    "solve_forward",
    "extract_observation",
    "ContourQuadrature",
    "invert_with_error",
    "InversionConfig",
    "InversionResult",
    "ReplicateSummary",
    "add_noise",
    "invert_orders",
    "run_replicates",
    "ExperimentSpec",
    "ExperimentTable",
    "BUILTIN_EXPERIMENTS",
    "builtin_experiment",
    "run_experiment",
    "load_config",
    "parse_config",
    "config_document",
    "read_csv",
    "read_observation",
    "write_observation",
    "__version__",
]
