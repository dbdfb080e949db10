import math

import pytest

from magnomech import (
    DriveParams,
    SingularPointError,
    amplitudes_once,
    approx_amplitudes,
    drive_conversions,
    resolve_system_params,
    run_point,
    solve_self_consistent,
)
from magnomech.params import TWO_PI, resolve_drive_params


def _baseline_detunings(params):
    return (params.delta_m_tilde + params.barnett_shift, params.delta_c_tilde)


@pytest.fixture
def params():
    return resolve_system_params({})


@pytest.fixture
def drives(params):
    """Drive settings that land the effective couplings near the baseline."""
    omega_laser = TWO_PI * 299792458.0 / params.lambda_c
    raw = DriveParams(
        drive_power=4e-3,
        laser_power=30e-3,
        sphere_radius=100e-6,
        spin_count=1.77e16,
        gyromagnetic_ratio=TWO_PI * 28e9,
        drive_freq_2=omega_laser,
        bare_D_mb1=TWO_PI * 0.1,
        bare_D_cb2=TWO_PI * 100.0,
    )
    rabi, laser_coupling, _ = drive_conversions(raw, params.gamma_c)
    return DriveParams(
        rabi=rabi,
        laser_coupling=laser_coupling,
        bare_D_mb1=raw.bare_D_mb1,
        bare_D_cb2=raw.bare_D_cb2,
        sphere_radius=raw.sphere_radius,
        drive_freq_2=omega_laser,
    )


def test_undriven_system_is_dark(params):
    sa = amplitudes_once(params, DriveParams(), _baseline_detunings(params))
    assert sa.m_avg == 0 and sa.c_avg == 0
    assert sa.b1_avg == 0 and sa.b2_avg == 0
    assert sa.g_m_eff == 0 and sa.g_c_eff == 0


def test_one_sided_laser_drive(params):
    drives = DriveParams(laser_coupling=1e10, bare_D_cb2=TWO_PI * 100.0)
    detunings = _baseline_detunings(params)
    sa = amplitudes_once(params, drives, detunings)
    assert sa.m_avg == 0
    expected_c = params.psi * 1e10 / (1j * detunings[1] + params.gamma_c)
    assert sa.c_avg == pytest.approx(expected_c, rel=1e-12)
    # mechanical displacements driven by |<c>|^2 alone
    z1 = 1j * params.gamma_b1 - params.omega_b1
    z2 = 1j * params.gamma_b2 - params.omega_b2
    den = params.D_b1b2**2 - z1 * z2
    c2 = abs(sa.c_avg) ** 2
    assert sa.b1_avg == pytest.approx(c2 * drives.bare_D_cb2 * params.D_b1b2 / den, rel=1e-12)
    assert sa.b2_avg == pytest.approx(c2 * drives.bare_D_cb2 * z1 / den, rel=1e-12)


def test_exact_matches_approximation_at_baseline(params, drives):
    detunings = _baseline_detunings(params)
    sa = amplitudes_once(params, drives, detunings)
    m_approx, c_approx = approx_amplitudes(params, drives, detunings)
    assert abs(sa.m_avg) == pytest.approx(abs(m_approx), rel=0.01)
    assert abs(sa.c_avg) == pytest.approx(abs(c_approx), rel=0.01)
    # the detuning-dominated regime makes the effective couplings mostly
    # real; the attainable ratio is set by delta/gamma, about 20 at the
    # baseline dampings
    assert abs(sa.g_m_eff.real) > 10 * abs(sa.g_m_eff.imag)
    assert abs(sa.g_c_eff.real) > 10 * abs(sa.g_c_eff.imag)


def test_couplings_essentially_real_at_narrow_linewidths(drives):
    # with dampings ten times below baseline the dominance exceeds 100x
    params = resolve_system_params(
        {"gamma_m": 1e5, "gamma_c": 1e5, "gamma_a": 1e5}
    )
    sa = amplitudes_once(params, drives, _baseline_detunings(params))
    assert abs(sa.g_m_eff.real) > 100 * abs(sa.g_m_eff.imag)
    assert abs(sa.g_c_eff.real) > 100 * abs(sa.g_c_eff.imag)


def test_effective_couplings_land_near_operating_values(params, drives):
    sa = solve_self_consistent(params, drives)
    # order of the directly specified couplings (0.7 and 2.7 MHz): the
    # drive numbers here are indicative, so only coarse windows apply
    assert 0.1e6 < sa.g_m_eff.real / TWO_PI < 2.0e6
    assert 0.5e6 < sa.g_c_eff.real / TWO_PI < 8.0e6


def test_no_backaction_converges_immediately(params, drives):
    free = DriveParams(rabi=drives.rabi, laser_coupling=drives.laser_coupling)
    sa = solve_self_consistent(params, free)
    assert sa.iterations == 1
    once = amplitudes_once(params, free, _baseline_detunings(params))
    assert sa.m_avg == once.m_avg and sa.c_avg == once.c_avg


def test_zero_drive_fixed_point(params):
    sa = solve_self_consistent(params, DriveParams(bare_D_mb1=1.0, bare_D_cb2=1.0))
    assert sa.m_avg == 0 and sa.c_avg == 0
    assert sa.delta_m_eff == params.delta_m_tilde
    assert sa.delta_c_eff == params.delta_c_tilde


def test_converged_point_is_self_consistent(params, drives):
    sa = solve_self_consistent(params, drives)
    again = amplitudes_once(params, drives, (sa.delta_m_eff, sa.delta_c_eff))
    for attr in ("m_avg", "c_avg", "b1_avg", "b2_avg"):
        new, old = getattr(again, attr), getattr(sa, attr)
        assert abs(new - old) <= 1e-8 * (abs(old) + 1e-30)


def test_linearity_in_drive(params):
    base = DriveParams(rabi=1e12, laser_coupling=1e10)
    double = DriveParams(rabi=2e12, laser_coupling=2e10)
    detunings = _baseline_detunings(params)
    sa1 = amplitudes_once(params, base, detunings)
    sa2 = amplitudes_once(params, double, detunings)
    assert abs(sa2.m_avg) == pytest.approx(2 * abs(sa1.m_avg), rel=1e-12)
    assert abs(sa2.c_avg) == pytest.approx(2 * abs(sa1.c_avg), rel=1e-12)


def test_singular_optical_denominator():
    # gamma_c_fb vanishes at reflectivity 0.5, theta 0; with zero optical
    # detuning the optical response diverges
    params = resolve_system_params(
        {"reflectivity": 0.5, "theta": 0.0, "delta_c_tilde": 0.0}
    )
    with pytest.raises(SingularPointError, match="optical"):
        amplitudes_once(params, DriveParams(laser_coupling=1.0), (params.delta_m_tilde, 0.0))


def test_approximation_needs_detunings(params):
    with pytest.raises(SingularPointError):
        approx_amplitudes(params, DriveParams(), (params.delta_m_tilde, 0.0))


def test_drive_field_sets_the_rabi_rate_however_the_laser_is_given(params):
    # the magnon drive is given as a field; the optical drive once as a
    # power (which needs converting) and once as the equivalent coupling
    # (which does not): the Rabi rate must come from the field both times
    config = {
        "coupling_mode": "meanfield", "spin_count": 1.77e16, "gyromagnetic_ratio": 28e9,
        "bare_D_mb1": 0.1, "bare_D_cb2": 100, "sphere_radius": 100e-6, "drive_field": 1e-6,
    }
    laser = {"laser_power": 30e-3, "drive_freq_2": 1.934e14}
    _, laser_coupling, _ = drive_conversions(
        resolve_drive_params({**laser, "sphere_radius": 100e-6}), params.gamma_c
    )
    from_power = run_point({**config, **laser}).params.G_m
    from_coupling = run_point({**config, "laser_coupling": laser_coupling / TWO_PI}).params.G_m
    assert from_power > 0
    assert from_coupling == pytest.approx(from_power, rel=1e-12)
