"""Physics properties that must hold at every valid parameter point.

Hypothesis draws points around the operating regime (file units: Hz, K,
rad): dampings across an order of magnitude or more, couplings from off
to above baseline, detunings over the planes the presets sweep, any
feedback loop and temperatures up to 1 K.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import expm

from magnomech import (
    build_diffusion,
    build_drift,
    evaluate_measures,
    resolve_system_params,
    solve_lyapunov,
    stability_check,
)
from magnomech.lyapunov import RESIDUAL_TOL
from magnomech.measures import (
    ALL_PAIRS,
    DEFAULT_TRIPLES,
    INDIRECT_PAIRS,
    _PAIR_FORM,
    _det_factor,
    _kernel,
    _pair_moduli,
)
from magnomech.model import OMEGA
from test_measures import _contangle_by_eigenvalues, _gather, _negativity

W_B1, W_B2 = 20.15e6, 20.11e6

POINTS = st.fixed_dictionaries({
    "gamma_a": st.floats(1e5, 5e6),
    "gamma_m": st.floats(1e5, 5e6),
    "gamma_c": st.floats(1e5, 5e6),
    "gamma_b1": st.floats(10.0, 1e4),
    "gamma_b2": st.floats(10.0, 1e4),
    "D_ma": st.floats(0.0, 3e6),
    "D_b1b2": st.floats(0.0, 3e6),
    "G_m": st.floats(0.0, 3e6),
    "G_c": st.floats(0.0, 3e6),
    "delta_m_tilde": st.floats(-2.0 * W_B1, 0.0),
    "delta_c_tilde": st.floats(0.0, 2.0 * W_B2),
    "barnett_shift": st.floats(-0.3 * W_B1, 0.3 * W_B1),
    "reflectivity": st.floats(0.0, 0.95),
    "theta": st.floats(-math.pi, math.pi),
    "temperature": st.floats(0.0, 1.0),
})


def _steady_state(config):
    """Parameters, drift, diffusion and covariance of a stable point."""
    params = resolve_system_params(config)
    drift = build_drift(params)
    gate = stability_check(drift)
    assume(gate.stable)
    diffusion = build_diffusion(params)
    return params, drift, diffusion, solve_lyapunov(drift, diffusion), gate.margin


def _local_rotation(phi_1, phi_2):
    rotation = np.zeros((4, 4))
    for i, phi in enumerate((phi_1, phi_2)):
        c, s = math.cos(phi), math.sin(phi)
        rotation[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[c, -s], [s, c]]
    return rotation


@settings(max_examples=150, deadline=None)
@given(POINTS)
def test_stable_point_meets_the_residual_bound(config):
    _, drift, diffusion, cov, _ = _steady_state(config)
    residual = drift @ cov + cov @ drift.T + diffusion
    assert np.linalg.norm(residual) <= RESIDUAL_TOL * np.linalg.norm(diffusion)


@settings(max_examples=150, deadline=None)
@given(POINTS)
def test_no_feedback_gives_a_physical_state(config):
    params, _, _, cov, margin = _steady_state({**config, "reflectivity": 0.0})
    assert evaluate_measures(cov, params, margin, ()).physical


@settings(max_examples=150, deadline=None)
@given(POINTS, st.sampled_from(ALL_PAIRS), st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi))
def test_log_negativity_ignores_mode_order_and_local_rotations(config, pair, phi_1, phi_2):
    cov = _steady_state(config)[3]
    cov4 = _gather(cov, pair)
    rotation = _local_rotation(phi_1, phi_2)
    expected = pytest.approx(_negativity(cov4), rel=1e-12, abs=1e-13)
    assert _negativity(_gather(cov, pair[::-1])) == expected
    assert _negativity(rotation @ cov4 @ rotation.T) == expected


@settings(max_examples=150, deadline=None)
@given(POINTS, st.one_of(st.just(0.0), st.floats(0.0, 0.95)))
def test_steering_implies_entanglement_on_physical_states(config, reflectivity):
    # Kogias et al., PRL 114, 060403 (2015): Gaussian steering in either
    # direction needs entanglement, which holds only for quantum states.
    # Most feedback loops give no quantum state, so half the draws have none
    # (always physical) and few are filtered out; every loop stays drawable.
    params, _, _, cov, margin = _steady_state({**config, "reflectivity": reflectivity})
    report = evaluate_measures(cov, params, margin, ("entanglement", "steering"))
    assume(report.physical)
    for a, b in INDIRECT_PAIRS:
        if report.steering_value(a, b) > 0 or report.steering_value(b, a) > 0:
            assert report.entanglement(a, b) > 0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-10.0, 10.0), min_size=16, max_size=16), st.floats(1e-3, 10.0))
def test_pair_closed_form_matches_svd(entries, shift):
    # the closed-form singular values of the partially transposed 4x4 kernel
    # L^T J L against a general SVD of it, on random positive definite L L^T
    root = np.reshape(entries, (4, 4))
    factor = np.linalg.cholesky(root @ root.T + shift * np.eye(4))[None]
    singular = np.linalg.svd(_kernel(factor, _PAIR_FORM)[0], compute_uv=False)
    smaller, larger = _pair_moduli(factor, _det_factor(factor))
    assert larger[0] == pytest.approx(singular[0], abs=1e-13 * singular[0])
    assert smaller[0] == pytest.approx(singular[3], abs=1e-13 * singular[0])


def _local_modes(occupation, squeezing):
    """Occupations, single-mode squeezings and rotation angles of five modes."""
    mode = st.tuples(st.floats(0.01, occupation), st.floats(-squeezing, squeezing),
                     st.floats(-math.pi, math.pi))
    return st.tuples(*[mode] * 5)


def _local_state(modes):
    """Thermal modes, each dressed by its own squeezer and rotation: a product state."""
    cov = np.zeros((10, 10))
    for k, (occupation, r, phi) in enumerate(modes):
        local = _local_rotation(phi, 0.0)[:2, :2] @ np.diag([math.exp(r), math.exp(-r)])
        cov[2 * k:2 * k + 2, 2 * k:2 * k + 2] = (occupation + 0.5) * local @ local.T
    return cov


@settings(max_examples=150, deadline=None)
@given(_local_modes(5.0, 1.5))
def test_separable_state_has_zero_contangles(modes):
    report = evaluate_measures(_local_state(modes), None, -1.0, ("contangle",))
    # +0.0, not -0.0: a table cell prints its sign
    assert repr([report.contangle(triple) for triple in DEFAULT_TRIPLES]) == repr([0.0] * 4)


@settings(max_examples=150, deadline=None)
@given(_local_modes(1.0, 1.0), st.lists(st.floats(-1.0, 1.0), min_size=100, max_size=100),
       st.floats(0.0, 1.0))
def test_contangle_matches_the_eigenvalue_route_on_mixed_states(modes, entries, strength):
    # a product state through a random symplectic exp(Omega H): weak coupling
    # leaves every partial transpose certified, strong coupling entangles
    # pairs or only one-versus-rest bipartitions
    hamiltonian = np.reshape(entries, (10, 10))
    cov = _local_state(modes)
    symplectic = expm(strength * OMEGA @ (hamiltonian + hamiltonian.T) / 2)
    cov = symplectic @ cov @ symplectic.T
    report = evaluate_measures(cov, None, -1.0, ("contangle",))
    for triple in DEFAULT_TRIPLES:
        assert abs(report.contangle(triple) - _contangle_by_eigenvalues(cov, triple)) <= 1e-12
