import dataclasses
import math
import random
from pathlib import Path

import numpy as np
import pytest

from magnomech import (
    ConvergenceError,
    DomainError,
    DriveParams,
    SingularPointError,
    amplitudes_once,
    approx_amplitudes,
    drive_conversions,
    resolve_system_params,
    run_point,
    solve_self_consistent,
)
from magnomech import meanfield
from magnomech.meanfield import CONVERGENCE_TOL, DAMPING, MAX_ITERATIONS, SteadyAmplitudes
from magnomech.params import TWO_PI, load_config, resolve_drive_params
from magnomech.sweep import split_config

MEANFIELD_POINT = Path(__file__).parent.parent / "configs" / "meanfield_point.cfg"

#: Detunings (delta_m_tilde, delta_c_tilde) in Hz at which the iteration on
#: the drive of configs/meanfield_point.cfg settles into an exact period-2
#: orbit, and at which its orbit never repeats within MAX_ITERATIONS.
CYCLING = (-40.3e6, 3351666.6666666665)
NON_REPEATING = (-40.3e6, 5027500.0)


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
    return drive_conversions(raw, params.gamma_c)


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
    laser_coupling = drive_conversions(resolve_drive_params(laser), params.gamma_c).laser_coupling
    from_power = run_point({**config, **laser}).params.G_m
    from_coupling = run_point({**config, "laser_coupling": laser_coupling / TWO_PI}).params.G_m
    assert from_power > 0
    assert from_coupling == pytest.approx(from_power, rel=1e-12)


@pytest.mark.parametrize(
    "config",
    [
        {"drive_field": 1e-6, "laser_coupling": 1.5e10},
        {"rabi": 5e12, "laser_power": 30e-3, "drive_freq_2": 1.934e14},
        {"laser_power": 30e-3, "drive_freq_2": 1.934e14},
    ],
    ids=["drive_field+laser_coupling", "rabi+laser_power", "laser_power"],
)
def test_sphere_radius_needed_only_to_derive_the_field_from_power(config):
    magnon_driven = "rabi" in config or "drive_field" in config
    config = {
        **config, "coupling_mode": "meanfield", "spin_count": 1.77e16,
        "gyromagnetic_ratio": 28e9, "bare_D_mb1": 0.1, "bare_D_cb2": 100,
    }
    without = run_point(config).params
    with_radius = run_point({**config, "sphere_radius": 100e-6}).params
    assert (without.G_m > 0) == magnon_driven and without.G_c > 0
    assert (without.G_m, without.G_c) == (with_radius.G_m, with_radius.G_c)
    # the Rabi rate from drive_power alone still needs the radius
    power_only = {k: v for k, v in config.items() if k not in ("rabi", "drive_field")}
    with pytest.raises(DomainError, match="sphere_radius"):
        run_point({**power_only, "drive_power": 4e-3})


def _reference_amplitudes(p, d, delta_m_eff, delta_c_eff):
    """The closed-form amplitudes written out longhand, term by term."""
    gamma_c_fb = p.gamma_c * (1.0 - 2.0 * p.reflectivity * math.cos(p.theta))
    den_a = 1j * p.delta_a + p.gamma_a
    if den_a == 0:
        raise SingularPointError("microwave response (i*delta_a + gamma_a) vanishes")
    den_m = (1j * delta_m_eff + p.gamma_m) + p.D_ma**2 / den_a
    if den_m == 0:
        raise SingularPointError("magnon amplitude denominator vanishes")
    den_c = 1j * delta_c_eff + gamma_c_fb
    if den_c == 0:
        raise SingularPointError("optical amplitude denominator vanishes")
    m_avg = d.rabi / den_m
    c_avg = p.psi * d.laser_coupling / den_c
    z1 = 1j * p.gamma_b1 - p.omega_b1
    z2 = 1j * p.gamma_b2 - p.omega_b2
    den_b = p.D_b1b2**2 - z1 * z2
    if den_b == 0:
        raise SingularPointError("mechanical amplitude denominator vanishes")
    c2 = abs(c_avg) ** 2
    m2 = abs(m_avg) ** 2
    return SteadyAmplitudes(
        m_avg=m_avg,
        c_avg=c_avg,
        b1_avg=(c2 * d.bare_D_cb2 * p.D_b1b2 - m2 * d.bare_D_mb1 * z2) / den_b,
        b2_avg=(c2 * d.bare_D_cb2 * z1 - m2 * d.bare_D_mb1 * p.D_b1b2) / den_b,
        g_m_eff=-1j * math.sqrt(2.0) * d.bare_D_mb1 * m_avg,
        g_c_eff=1j * math.sqrt(2.0) * d.bare_D_cb2 * c_avg,
        delta_m_eff=delta_m_eff,
        delta_c_eff=delta_c_eff,
    )


def _reference_solve(p, d):
    """The damped displacement iteration written out longhand."""
    shift = 2.0 * p.gamma_c * p.reflectivity * math.sin(p.theta)
    delta_m0 = p.delta_m_tilde + p.barnett_shift
    delta_c0 = p.delta_c_tilde + shift
    x1 = 0.0
    x2 = 0.0
    previous = _reference_amplitudes(p, d, delta_m0, delta_c0)
    x1 += DAMPING * (previous.b1_avg.real - x1)
    x2 += DAMPING * (previous.b2_avg.real - x2)
    change = math.inf
    for iteration in range(1, MAX_ITERATIONS + 1):
        current = _reference_amplitudes(
            p, d, delta_m0 + 2.0 * d.bare_D_mb1 * x1, delta_c0 - 2.0 * d.bare_D_cb2 * x2
        )
        pairs = [(getattr(current, k), getattr(previous, k))
                 for k in ("m_avg", "c_avg", "b1_avg", "b2_avg")]
        change = max(abs(a - b) / (abs(b) + 1e-30) for a, b in pairs)
        if change < CONVERGENCE_TOL:
            return dataclasses.replace(current, iterations=iteration)
        previous = current
        x1 += DAMPING * (current.b1_avg.real - x1)
        x2 += DAMPING * (current.b2_avg.real - x2)
    raise ConvergenceError(
        f"mean-field iteration did not converge in {MAX_ITERATIONS} steps "
        f"(last relative change {change:.3e})",
        residual=change,
    )


def _outcome(solve, *args):
    try:
        return solve(*args)
    except (ConvergenceError, SingularPointError) as exc:
        return type(exc), str(exc), getattr(exc, "residual", None)


def _meanfield_point(delta_m_tilde, delta_c_tilde):
    """``(params, drives)`` of configs/meanfield_point.cfg at the given detunings (Hz)."""
    config = load_config(MEANFIELD_POINT)
    config.pop("coupling_mode")
    system, drive, _ = split_config(config)
    params = resolve_system_params(
        {**system, "delta_m_tilde": delta_m_tilde, "delta_c_tilde": delta_c_tilde}
    )
    return params, drive_conversions(resolve_drive_params(drive), params.gamma_c)


def _meanfield_cases():
    """A seeded draw over the detuning plane of configs/meanfield_point.cfg,
    the cycling and non-repeating points, and the no-back-action,
    zero-drive and singular-optics cases."""
    rng = random.Random(0)
    cases = [_meanfield_point(rng.uniform(-40.3e6, 0.0), rng.uniform(0.0, 40.22e6))
             for _ in range(12)]
    cases += [_meanfield_point(*CYCLING), _meanfield_point(*NON_REPEATING)]
    baseline = resolve_system_params({})
    cases.append((baseline, DriveParams(rabi=cases[0][1].rabi, laser_coupling=cases[0][1].laser_coupling)))
    cases.append((baseline, DriveParams(bare_D_mb1=1.0, bare_D_cb2=1.0)))
    singular = resolve_system_params({"reflectivity": 0.5, "theta": 0.0, "delta_c_tilde": 0.0})
    cases.append((singular, DriveParams(laser_coupling=1.0)))
    return cases


def test_iteration_is_bit_identical_to_the_longhand_reference():
    outcomes = []
    for params, drives in _meanfield_cases():
        expected = _outcome(_reference_solve, params, drives)
        got = _outcome(solve_self_consistent, params, drives)
        # repr tells -0.0 from 0.0, which == does not
        assert got == expected and repr(got) == repr(expected)
        detunings = (params.delta_m_tilde, params.delta_c_tilde)
        once = _outcome(amplitudes_once, params, drives, detunings)
        assert repr(once) == repr(_outcome(_reference_amplitudes, params, drives, *detunings))
        outcomes.append(expected)
    # the draw covers every kind of outcome
    iterations = [o.iterations for o in outcomes if isinstance(o, SteadyAmplitudes)]
    assert max(iterations) > 1 and 1 in iterations
    kinds = {o[0] for o in outcomes if isinstance(o, tuple)}
    assert kinds == {ConvergenceError, SingularPointError}


@pytest.fixture
def step_calls(monkeypatch):
    """The detunings of every amplitude step the solver evaluates."""
    calls = []
    amplitude_map = meanfield._amplitude_map

    def counting_map(params, drives):
        step = amplitude_map(params, drives)

        def counted(*detunings):
            calls.append(detunings)
            return step(*detunings)

        return counted

    monkeypatch.setattr(meanfield, "_amplitude_map", counting_map)
    return calls


def test_iteration_stops_once_its_orbit_repeats(step_calls):
    with pytest.raises(ConvergenceError):
        solve_self_consistent(*_meanfield_point(*CYCLING))
    assert len(step_calls) < 100
    assert step_calls[-1] == step_calls[-3] != step_calls[-2]
    step_calls.clear()
    with pytest.raises(ConvergenceError):
        solve_self_consistent(*_meanfield_point(*NON_REPEATING))
    assert len(step_calls) == MAX_ITERATIONS + 1


def test_detuning_plane_outcomes_match_the_longhand_reference(step_calls):
    # a seeded 10x10 sub-grid of the 25x25 plane of the meanfield-detuning
    # benchmark workload, which holds all three kinds of outcome
    rng = random.Random(0)
    grid_m = np.linspace(-40.3e6, 0.0, 25)
    grid_c = np.linspace(0.0, 40.22e6, 25)
    rows, columns = sorted(rng.sample(range(25), 10)), sorted(rng.sample(range(25), 10))
    kinds = set()
    for i in rows:
        for j in columns:
            params, drives = _meanfield_point(float(grid_m[i]), float(grid_c[j]))
            step_calls.clear()
            got = _outcome(solve_self_consistent, params, drives)
            assert repr(got) == repr(_outcome(_reference_solve, params, drives))
            if isinstance(got, SteadyAmplitudes):
                kinds.add("converged")
            else:
                kinds.add("non-repeating" if len(step_calls) > MAX_ITERATIONS else "cycling")
    assert kinds == {"converged", "cycling", "non-repeating"}
