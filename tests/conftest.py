"""Shared fixtures: benchmark parameter sets, grids, a cold first-march
memo for every test, random draws, and probes of the transform built on
:func:`fracmim.laplace.laplace_profile`."""

import warnings

import numpy as np
import pytest

from fracmim import GridSpec, ModelParams, ValidationError, inversion
from fracmim.laplace import laplace_profile

# Hypothesis imports this module to report a failing property.  Its
# libcst dependency can raise a DeprecationWarning on import, which the
# suite's filters turn into an INTERNALERROR that stops the whole run,
# so it is imported once here, with that warning ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture(autouse=True)
def cold_first_march():
    """Start every test with an empty first-march memo of the inversion.

    Inversions that start at the same iterate share its march, so a test
    that counts marches would otherwise depend on the tests run before it.
    """
    inversion._first_march.cache_clear()


# Benchmark parameter set with alpha=0.8, gamma=0.25 (the standard
# high-dispersion configuration all cross-checks run on).
BENCH_PARAMS = ModelParams(
    P=5.0, R1=2.0, R2=2.0, beta=0.5, omega=1.5, lam=0.05, mu=0.1,
    alpha=0.8, gamma=0.25,
)


@pytest.fixture
def bench_params() -> ModelParams:
    return BENCH_PARAMS


@pytest.fixture
def default_grid() -> GridSpec:
    return GridSpec(m=40, n=200, T=100.0)


@pytest.fixture
def tiny_grid() -> GridSpec:
    return GridSpec(m=8, n=20, T=10.0)


def admissible_draw(rng: np.random.Generator) -> ModelParams:
    """One random parameter set satisfying every admissibility bound."""
    return ModelParams(
        P=rng.uniform(0.2, 10.0),
        R1=rng.uniform(1.0, 5.0),
        R2=rng.uniform(1.0, 5.0),
        beta=rng.uniform(0.05, 0.95),
        omega=rng.uniform(0.05, 3.0),
        lam=rng.uniform(1e-4, 1.0),
        mu=rng.uniform(1e-4, 1.0),
        alpha=rng.uniform(0.05, 0.95),
        gamma=rng.uniform(0.05, 0.95),
    )


def bound_constant(
    p: ModelParams,
    sample: np.ndarray,
    x_grid: np.ndarray | None = None,
) -> float:
    """Largest |s|*|u1_hat(x,s)| over a frequency sample and an x grid.

    A finite value across growing samples witnesses the 1/|s| decay of
    the transform; at x=0 the product is exactly 1.
    """
    sample = np.atleast_1d(np.asarray(sample, dtype=complex))
    if sample.size == 0:
        raise ValidationError("sample of frequencies must be nonempty")
    if x_grid is None:
        x_grid = np.linspace(0.0, 1.0, 21)
    best = 0.0
    for s in sample:
        for x in np.atleast_1d(x_grid):
            u1, _ = laplace_profile(float(x), complex(s), p)
            best = max(best, abs(s) * abs(u1))
    return best


def real_s_profile(
    x0: float,
    s: float,
    orders: tuple[float, float],
    p_base: ModelParams,
) -> float:
    """Transformed mobile concentration at a real frequency, as a real number.

    Shares the complex evaluation path of ``laplace_profile`` (no
    separate real algebra), with the orders supplied explicitly because
    the order-recovery analysis varies them while everything else stays
    fixed.  On the positive real axis the value is real and lies in
    [0, 1/s]; at fixed gamma it decreases in alpha for large s, and
    symmetrically in gamma at fixed alpha.
    """
    if not (isinstance(s, (int, float)) and s > 0):
        raise ValidationError("s must be a positive real frequency")
    p = p_base.with_orders(*orders)
    u1, _ = laplace_profile(x0, complex(s), p)
    return u1.real
