"""Self-verification suites: solver cross-checks and analytic oracles.

These are the checks behind the ``validate`` CLI subcommand.  Each suite
returns (name, passed, detail); they are deliberately redundant with the
unit tests so a deployed installation can re-verify itself without a
test harness.
"""

from __future__ import annotations

import math

import numpy as np

from .lyapunov import (
    integrate_lyapunov,
    solve_lyapunov,
    solve_lyapunov_oracle,
    stability_check,
)
from .measures import DEFAULT_TRIPLES, evaluate_measures, tmsv_covariance
from .model import MODE_INDEX, build_drift
from .params import resolve_system_params


#: Number of random systems and generator seed of each solver cross-check.
ORACLE_SYSTEMS, ORACLE_SEED = 100, 20240
INTEGRATION_SYSTEMS, INTEGRATION_SEED = 10, 31337


def random_stable_system(rng: np.random.Generator, n_modes: int):
    """A random stable drift matrix and PSD diffusion, dimension 2*n_modes."""
    n = 2 * n_modes
    drift = rng.normal(size=(n, n))
    margin = float(np.linalg.eigvals(drift).real.max())
    drift -= (margin + 0.5 + rng.uniform(0.0, 1.0)) * np.eye(n)
    root = rng.normal(size=(n, n))
    diffusion = root @ root.T + 0.1 * np.eye(n)
    return drift, diffusion


def check_solver_vs_oracle() -> tuple:
    """Bartels-Stewart against the Kronecker solve on random systems."""
    rng = np.random.default_rng(ORACLE_SEED)
    worst = 0.0
    for k in range(ORACLE_SYSTEMS):
        n_modes = 2 + k % 9  # sizes 2..10
        drift, diffusion = random_stable_system(rng, n_modes)
        cov = solve_lyapunov(drift, diffusion)
        ref = solve_lyapunov_oracle(drift, diffusion)
        rel = float(np.linalg.norm(cov - ref) / np.linalg.norm(ref))
        worst = max(worst, rel)
    passed = worst < 1e-8
    return "solver-vs-oracle", passed, f"max relative difference {worst:.3e} over {ORACLE_SYSTEMS} systems"


def check_integration_oracle() -> tuple:
    """Algebraic solution against direct time integration."""
    rng = np.random.default_rng(INTEGRATION_SEED)
    worst = 0.0
    for k in range(INTEGRATION_SYSTEMS):
        drift, diffusion = random_stable_system(rng, 2 + k % 4)
        cov = solve_lyapunov(drift, diffusion)
        ref = integrate_lyapunov(drift, diffusion)
        rel = float(np.linalg.norm(cov - ref) / np.linalg.norm(cov))
        worst = max(worst, rel)
    passed = worst < 1e-6
    return "integration-oracle", passed, f"max relative difference {worst:.3e} over {INTEGRATION_SYSTEMS} systems"


def _vacuum_with(block: np.ndarray, modes) -> np.ndarray:
    """A five-mode vacuum covariance with ``block`` on the named modes, in that order."""
    cov = 0.5 * np.eye(2 * len(MODE_INDEX))
    q = [2 * MODE_INDEX[mode] + k for mode in modes for k in (0, 1)]
    cov[np.ix_(q, q)] = block
    return cov


def check_tmsv_family() -> tuple:
    """Entanglement and steering of the squeezed-vacuum family, placed on the
    indirectly coupled pair (b1, c) of a vacuum state and read from its report."""
    worst = 0.0
    for r in (0.1, 0.5, 1.0):
        cov = _vacuum_with(tmsv_covariance(r), ("b1", "c"))
        report = evaluate_measures(cov, None, 0.0, ("entanglement", "steering"))
        expected = math.log(math.cosh(2.0 * r))
        worst = max(worst, abs(report.entanglement("b1", "c") - 2.0 * r),
                    *(abs(report.steering_value(*pair) - expected) for pair in (("b1", "c"), ("c", "b1"))))
    passed = worst < 1e-10
    return "analytic-measures", passed, f"max deviation {worst:.3e}"


def check_contangle_family() -> tuple:
    """Residual contangles of a thermal product, all exactly +0.0, and of a squeezed
    pair (b1, m) beside a vacuum mode c, whose terms cancel in R(b1, m, c)."""
    thermal = np.diag(np.repeat([1.5, 2.5, 0.75, 1.0, 3.5], 2))
    product = evaluate_measures(thermal, None, 0.0, ("contangle",)).tripartite_R
    cov = _vacuum_with(tmsv_covariance(0.8), ("b1", "m"))
    pair = evaluate_measures(cov, None, 0.0, ("contangle",)).contangle(("b1", "m", "c"))
    zeros = sum(math.copysign(1.0, value) == 1.0 and value == 0.0 for value in product.values())
    passed = zeros == len(DEFAULT_TRIPLES) and abs(pair) <= 1e-10
    return ("analytic-contangle", passed,
            f"thermal product {zeros}/{len(DEFAULT_TRIPLES)} exact zeros, squeezed pair |R| {abs(pair):.3e}")


def check_decoupled_spectrum() -> tuple:
    """Drift eigenvalues in the zero-coupling limit against the analytic set."""
    params = resolve_system_params(
        {"D_ma": 0.0, "D_b1b2": 0.0, "G_m": 0.0, "G_c": 0.0}
    )
    drift = build_drift(params)
    got = np.sort_complex(np.linalg.eigvals(drift))
    detunings = (
        (params.gamma_b1, params.omega_b1),
        (params.gamma_b2, params.omega_b2),
        (params.gamma_m, params.delta_m_tilde + params.barnett_shift),
        (params.gamma_c, params.delta_c_tilde),
        (params.gamma_a, params.delta_a),
    )
    expected = np.sort_complex(
        np.array([s * 1j * d - g for g, d in detunings for s in (+1, -1)])
    )
    scale = np.abs(expected).max()
    worst = float(np.abs(got - expected).max() / scale)
    margin = stability_check(drift)
    passed = worst < 1e-12 and margin.stable
    return "decoupled-spectrum", passed, f"max relative deviation {worst:.3e}"


def run_all() -> bool:
    """Run every suite, print one line per suite, return overall pass."""
    checks = (
        check_solver_vs_oracle,
        check_integration_oracle,
        check_tmsv_family,
        check_contangle_family,
        check_decoupled_spectrum,
    )
    ok = True
    for check in checks:
        name, passed, detail = check()
        ok &= passed
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    return ok
