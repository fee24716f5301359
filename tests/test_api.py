"""The public namespace: exactly the user API, every name importable."""

import importlib

import pytest

import fracmim

# Every module that declares an __all__ (errors.py exports all it defines).
MODULES = ("cli", "experiments", "inversion", "io", "laplace", "model", "solver")

PUBLIC_API = {
    # errors
    "FracmimError", "ValidationError", "ParameterError", "GridError", "ConfigError",
    "NumericalError", "SolverError", "QuadratureError", "InversionError",
    # model and forward solve
    "ModelParams", "GridSpec", "SolutionGrid", "ObservationSeries",
    "solve_forward", "extract_observation",
    # closed-form reference
    "ContourQuadrature", "invert_with_error",
    # order recovery
    "InversionConfig", "InversionResult", "ReplicateSummary", "add_noise",
    "invert_orders", "run_replicates",
    # experiments
    "ExperimentSpec", "ExperimentTable", "BUILTIN_EXPERIMENTS", "builtin_experiment",
    "run_experiment",
    # files
    "load_config", "parse_config", "config_document", "read_csv", "read_observation",
    "write_observation",
    "__version__",
}


def test_public_api_is_pinned():
    # Growing the API is a deliberate edit of this set.
    assert set(fracmim.__all__) == PUBLIC_API
    assert len(fracmim.__all__) == len(PUBLIC_API)  # no duplicates
    for name in fracmim.__all__:
        assert getattr(fracmim, name) is not None


@pytest.mark.parametrize("module", MODULES)
def test_module_all_names_resolve(module):
    # a stale entry breaks "from fracmim.<module> import *"
    mod = importlib.import_module(f"fracmim.{module}")
    for name in mod.__all__:
        getattr(mod, name)
    exec(f"from fracmim.{module} import *", {})


def test_removed_helpers_stay_unlisted():
    # The closed form and the march run on private functions; these
    # wrappers had no caller outside the tests and are gone.
    for module, removed in (
        ("laplace", {"coeff_b", "laplace_coefficients", "LaplaceCoefficients", "invert_transform",
                     "invert_at"}),
        ("solver", {"BlockSystem"}),
    ):
        mod = importlib.import_module(f"fracmim.{module}")
        assert not removed & set(mod.__all__)
        assert not any(hasattr(mod, name) for name in removed)
