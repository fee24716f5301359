"""The public namespace: exactly the user API, every name importable."""

import fracmim

PUBLIC_API = {
    # errors
    "FracmimError", "ValidationError", "ParameterError", "GridError", "ConfigError",
    "NumericalError", "SolverError", "QuadratureError", "InversionError",
    # model and forward solve
    "ModelParams", "GridSpec", "SolutionGrid", "ObservationSeries",
    "solve_forward", "extract_observation",
    # closed-form reference
    "ContourQuadrature", "invert_at", "invert_with_error",
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
