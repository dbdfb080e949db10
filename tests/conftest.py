import numpy as np
import pytest

from magnomech import (
    build_diffusion,
    build_drift,
    resolve_system_params,
    solve_lyapunov,
)


@pytest.fixture
def baseline():
    """Baseline operating point at 10 mK."""
    return resolve_system_params({})


@pytest.fixture
def baseline_cov(baseline):
    """Steady-state covariance at the baseline point."""
    return solve_lyapunov(build_drift(baseline), build_diffusion(baseline))


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)
