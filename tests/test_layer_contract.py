"""The contract shared by the public layer functions: one matrix rule, and
floating-point failures in the solves and the measures as typed errors."""

import re
import warnings

import numpy as np
import pytest
import scipy.integrate

import magnomech
from magnomech import (
    DomainError,
    SolverError,
    build_diffusion,
    build_drift,
    evaluate_measures,
    integrate_lyapunov,
    resolve_system_params,
    solve_lyapunov,
    solve_lyapunov_oracle,
    stability_check,
    tmsv_covariance,
)
from magnomech.measures import MEASURE_FAMILIES

#: The package's public names, sorted: adding or removing one is a change to this list.
PUBLIC_NAMES = [
    "BASELINE_CONFIG", "ConfigError", "ConvergenceError", "DomainError", "DriveParams",
    "MagnomechError", "MeasureReport", "PRESETS", "PhysicalityError", "ResultTable",
    "SingularPointError", "SolverError", "StabilityError", "StabilityResult", "SweepAxis",
    "SweepSpec", "SystemParams", "build_diffusion", "build_drift", "emit", "evaluate_measures",
    "evaluate_point", "get_preset", "integrate_lyapunov", "load_config", "resolve_point",
    "resolve_system_params", "run_point", "run_sweep", "solve_lyapunov", "solve_lyapunov_oracle",
    "solve_self_consistent", "stability_check", "sweep_spec_from_config", "tmsv_covariance",
]


def test_public_surface_is_the_listed_names():
    assert sorted(magnomech.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(magnomech, name), name

#: Every public function that takes a matrix, called with that matrix.
MATRIX_CALLS = {
    "stability_check": stability_check,
    "solve_lyapunov-drift": lambda m: solve_lyapunov(m, np.eye(2)),
    "solve_lyapunov-diffusion": lambda m: solve_lyapunov(-np.eye(2), m),
    "oracle-drift": lambda m: solve_lyapunov_oracle(m, np.eye(2)),
    "oracle-diffusion": lambda m: solve_lyapunov_oracle(-np.eye(2), m),
    "integration-drift": lambda m: integrate_lyapunov(m, np.eye(2)),
    "integration-diffusion": lambda m: integrate_lyapunov(-np.eye(2), m),
    "evaluate_measures": lambda m: evaluate_measures(m, None, -1.0),
}


@pytest.mark.parametrize("name", MATRIX_CALLS)
@pytest.mark.parametrize("matrix", [[[1.0, 2.0], [3.0]], np.zeros((0, 0)), "abc"],
                         ids=["ragged", "empty", "text"])
def test_matrix_that_is_not_a_real_square_one_is_a_domain_error(name, matrix, capfd):
    with pytest.raises(DomainError):
        MATRIX_CALLS[name](matrix)
    assert capfd.readouterr().err == ""  # no LAPACK complaint about an illegal argument


#: The matrix dimension each call takes where it is not 2.
DIMENSION = {"evaluate_measures": 10}

#: What each call's error says its matrix needs.
DRIFT_NEED = "drift must be a finite real square matrix"
NEED = {
    "stability_check": DRIFT_NEED,
    "solve_lyapunov-drift": DRIFT_NEED,
    "solve_lyapunov-diffusion":
        "solve_lyapunov needs a finite real diffusion matrix of the drift's shape (2, 2)",
    "oracle-drift": DRIFT_NEED,
    "oracle-diffusion": "oracle needs a finite real diffusion matrix of the drift's shape (2, 2)",
    "integration-drift": DRIFT_NEED,
    "integration-diffusion":
        "integration oracle needs a finite real diffusion matrix of the drift's shape (2, 2)",
    "evaluate_measures": "evaluate_measures needs a finite real 10x10 covariance",
}


@pytest.mark.parametrize("name", MATRIX_CALLS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
def test_non_finite_entry_is_a_solver_error_that_says_what_is_needed(name, bad, monkeypatch):
    def integrate(*_args, **_kwargs):
        raise AssertionError("a non-finite matrix reached the integrator")

    # integrate_lyapunov imports solve_ivp per call; a NaN tolerance would never finish
    monkeypatch.setattr(scipy.integrate, "solve_ivp", integrate)
    dim = DIMENSION.get(name, 2)
    message = re.escape(f"{NEED[name]}, got a non-finite entry")
    for entry in np.ndindex(dim, dim):
        matrix = 0.5 * np.eye(dim)
        matrix[entry] = bad
        # twice on the same array: a memoised gate must not serve the second call
        for _ in range(2):
            with pytest.raises(SolverError, match=message):
                MATRIX_CALLS[name](matrix)


@pytest.mark.parametrize("measures", [(), *((family,) for family in MEASURE_FAMILIES)],
                         ids=["spectrum", *MEASURE_FAMILIES])
@pytest.mark.parametrize("matrix, error", [
    ([[1.0, 2.0], [3.0]], DomainError), (np.zeros((0, 0)), DomainError), ("abc", DomainError),
    (np.where(np.eye(10) > 0, np.nan, 0.0), SolverError),
], ids=["ragged", "empty", "text", "nan"])
def test_each_measure_family_alone_keeps_the_matrix_rule(measures, matrix, error, capfd):
    # each family gathers its own blocks, so the one check must precede them all
    with pytest.raises(error):
        evaluate_measures(matrix, None, -1.0, measures)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("solve, temperature", [(solve_lyapunov, 1e200), (integrate_lyapunov, 1e300)],
                         ids=["schur", "integration"])
def test_overflowing_solve_is_a_solver_error(solve, temperature):
    params = resolve_system_params({"temperature": temperature})
    drift, diffusion = build_drift(params), build_diffusion(params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="floating-point"):
            solve(drift, diffusion)


def test_overflowing_measures_are_a_solver_error(baseline, baseline_cov):
    settings = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="floating-point"):
            evaluate_measures(baseline_cov * 1e100, baseline, -1.0)
    assert np.geterr() == settings


@pytest.mark.parametrize("family, scale", [("entanglement", 1e200), ("steering", 1e200),
                                           ("contangle", 1e200), ("occupation", 1.5e308)])
def test_overflowing_family_alone_is_a_solver_error(family, scale):
    # a pair factor's det L is 1e400 at 1e200; a variance sum overflows only near 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="floating-point"):
            evaluate_measures(np.eye(10) * scale, None, -1.0, (family,))


@pytest.mark.parametrize("call", [lambda: tmsv_covariance(1e3)], ids=["tmsv_covariance"])
def test_overflowing_scalar_measure_is_a_solver_error(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="floating-point"):
            call()


@pytest.mark.parametrize("r", [np.nan, np.inf, "x", 1j, None])
def test_squeezing_that_is_not_a_finite_real_is_a_domain_error(r):
    with pytest.raises(DomainError, match="tmsv_covariance"):
        tmsv_covariance(r)
