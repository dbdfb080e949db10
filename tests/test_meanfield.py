import dataclasses
import math
import random
from pathlib import Path

import numpy as np
import pytest
from scipy.constants import c as c_light, hbar, mu_0

from magnomech import (
    ConvergenceError,
    DomainError,
    DriveParams,
    MagnomechError,
    SingularPointError,
    SolverError,
    resolve_point,
    resolve_system_params,
    run_point,
    run_sweep,
    solve_self_consistent,
    sweep_spec_from_config,
)
from magnomech import meanfield
from magnomech.meanfield import (
    CONVERGENCE_TOL, DAMPING, MAX_ITERATIONS, SAVE_GAP, SteadyAmplitudes,
)
from magnomech.cli import main as cli_main
from magnomech.params import DRIVE_SOURCES, TWO_PI, load_config, resolve_drive_params
from magnomech.sweep import split_config

MEANFIELD_POINT = Path(__file__).parent.parent / "configs" / "meanfield_point.cfg"

#: Detunings (delta_m_tilde, delta_c_tilde) in Hz at which the iteration on
#: the drive of configs/meanfield_point.cfg settles into an exact period-2
#: orbit, and at which its orbit never repeats within MAX_ITERATIONS.
CYCLING = (-40.3e6, 3351666.6666666665)
NON_REPEATING = (-40.3e6, 5027500.0)
#: A point of the same plane whose orbit enters an exact period-8 cycle at
#: step 551, after the pair saved at step 8 * SAVE_GAP = 512.
LATE_CYCLING = (-28545833.333333332, 5027500.0)
#: What the ConvergenceError of an orbit that repeats says.
REPEATS = "repeats its displacement orbit"


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
    return _completed(params, raw)


def _completed(params, raw):
    """The amplitude-only block that drives as ``raw`` does: the amplitudes the solve
    derives from ``raw``, with its bare couplings."""
    rabi, laser_coupling = meanfield._drive_amplitudes(params, raw)
    return DriveParams(rabi=rabi, laser_coupling=laser_coupling,
                       bare_D_mb1=raw.bare_D_mb1, bare_D_cb2=raw.bare_D_cb2)


#: Parameters whose gamma_c, 2 pi * 1 MHz, is all that the drive amplitudes read.
OPTICS = resolve_system_params({"gamma_c": 1e6})


class TestDriveAmplitudes:
    def test_drive_field_from_power(self):
        # with gyro = N = 1 the Rabi rate is sqrt(5)/4 times the field
        drives = DriveParams(drive_power=4e-3, sphere_radius=100e-6,
                             spin_count=1.0, gyromagnetic_ratio=1.0)
        rabi, _ = meanfield._drive_amplitudes(OPTICS, drives)
        field = rabi / (math.sqrt(5.0) / 4.0)
        # frozen from the closed-form expression; the device-level figure
        # usually quoted for these settings is ~3.3e-5 T
        assert field == pytest.approx(3.267116626e-5, rel=1e-6)
        assert field == pytest.approx(3.3e-5, rel=0.02)

    def test_zero_laser_power(self):
        drives = DriveParams(drive_power=4e-3, sphere_radius=1e-4, spin_count=1e16,
                             gyromagnetic_ratio=TWO_PI * 28e9, laser_power=0.0)
        assert meanfield._drive_amplitudes(OPTICS, drives)[1] == 0.0

    def test_zero_drive_power(self):
        drives = DriveParams(drive_power=0.0, laser_power=30e-3, drive_freq_2=1e15)
        assert meanfield._drive_amplitudes(OPTICS, drives)[0] == 0.0

    def test_laser_coupling_magnitude(self):
        omega_laser = TWO_PI * 299792458.0 / 1550e-9
        drives = DriveParams(laser_power=30e-3, drive_freq_2=omega_laser)
        _, coupling = meanfield._drive_amplitudes(OPTICS, drives)
        expected = math.sqrt(2 * TWO_PI * 1e6 * 30e-3 / (1.0545718176461565e-34 * omega_laser))
        assert coupling == pytest.approx(expected, rel=1e-12)

    def test_bad_radius(self):
        with pytest.raises(DomainError, match="sphere_radius"):
            meanfield._drive_amplitudes(OPTICS, DriveParams(drive_power=4e-3, sphere_radius=0.0))


def test_undriven_system_is_dark(params):
    sa = _reference_amplitudes(params, DriveParams(), *_baseline_detunings(params))
    assert sa.m_avg == 0 and sa.c_avg == 0
    assert sa.b1_avg == 0 and sa.b2_avg == 0
    assert sa.g_m_eff == 0 and sa.g_c_eff == 0


def test_one_sided_laser_drive(params):
    drives = DriveParams(laser_coupling=1e10, bare_D_cb2=TWO_PI * 100.0)
    detunings = _baseline_detunings(params)
    sa = _reference_amplitudes(params, drives, *detunings)
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


def test_effective_couplings_mostly_real_at_baseline(params, drives):
    sa = _reference_amplitudes(params, drives, *_baseline_detunings(params))
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
    sa = _reference_amplitudes(params, drives, *_baseline_detunings(params))
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
    once = _reference_amplitudes(params, free, *_baseline_detunings(params))
    assert sa.m_avg == once.m_avg and sa.c_avg == once.c_avg


def test_zero_drive_fixed_point(params):
    sa = solve_self_consistent(params, DriveParams(bare_D_mb1=1.0, bare_D_cb2=1.0))
    assert sa.m_avg == 0 and sa.c_avg == 0
    assert sa.delta_m_eff == params.delta_m_tilde
    assert sa.delta_c_eff == params.delta_c_tilde


def test_converged_point_is_self_consistent(params, drives):
    sa = solve_self_consistent(params, drives)
    again = _reference_amplitudes(params, drives, sa.delta_m_eff, sa.delta_c_eff)
    for attr in ("m_avg", "c_avg", "b1_avg", "b2_avg"):
        new, old = getattr(again, attr), getattr(sa, attr)
        assert abs(new - old) <= 1e-8 * (abs(old) + 1e-30)


def test_linearity_in_drive(params):
    base = DriveParams(rabi=1e12, laser_coupling=1e10)
    double = DriveParams(rabi=2e12, laser_coupling=2e10)
    detunings = _baseline_detunings(params)
    sa1 = _reference_amplitudes(params, base, *detunings)
    sa2 = _reference_amplitudes(params, double, *detunings)
    assert abs(sa2.m_avg) == pytest.approx(2 * abs(sa1.m_avg), rel=1e-12)
    assert abs(sa2.c_avg) == pytest.approx(2 * abs(sa1.c_avg), rel=1e-12)


def test_drive_power_sets_the_rabi_rate_however_the_laser_is_given(params):
    # the magnon drive is given as a power; the optical drive once as a
    # power (which needs converting) and once as the equivalent coupling
    # (which does not): the Rabi rate must come from the power both times
    config = {
        "coupling_mode": "meanfield", "spin_count": 1.77e16, "gyromagnetic_ratio": 28e9,
        "bare_D_mb1": 0.1, "bare_D_cb2": 100, "sphere_radius": 100e-6, "drive_power": 4e-3,
    }
    laser = {"laser_power": 30e-3, "drive_freq_2": 1.934e14}
    _, laser_coupling = meanfield._drive_amplitudes(params, resolve_drive_params(laser))
    from_power = run_point({**config, **laser}).params.G_m
    from_coupling = run_point({**config, "laser_coupling": laser_coupling / TWO_PI}).params.G_m
    assert from_power > 0
    assert from_coupling == pytest.approx(from_power, rel=1e-12)


@pytest.mark.parametrize(
    "config",
    [
        {"rabi": 5e12, "laser_coupling": 1.5e10},
        {"rabi": 5e12, "laser_power": 30e-3, "drive_freq_2": 1.934e14},
        {"laser_power": 30e-3, "drive_freq_2": 1.934e14},
    ],
    ids=["rabi+laser_coupling", "rabi+laser_power", "laser_power"],
)
def test_sphere_radius_needed_only_to_derive_the_field_from_power(config):
    magnon_driven = "rabi" in config
    config = {**config, "coupling_mode": "meanfield", "bare_D_mb1": 0.1, "bare_D_cb2": 100}
    without = run_point(config).params
    assert (without.G_m > 0) == magnon_driven and without.G_c > 0
    # a radius that no conversion reads is an error, not a value that changes nothing
    with pytest.raises(DomainError, match="got .*sphere_radius nonzero"):
        run_point({**config, "sphere_radius": 100e-6})
    # the Rabi rate from drive_power still needs the radius
    power_only = {k: v for k, v in config.items() if k != "rabi"}
    with pytest.raises(DomainError, match="sphere_radius"):
        run_point({**power_only, "drive_power": 4e-3, "spin_count": 1.77e16,
                   "gyromagnetic_ratio": 28e9})


def _meanfield_config(**changes):
    """configs/meanfield_point.cfg with ``changes``; a drive amplitude among them
    replaces the fields its conversion reads."""
    config = load_config(MEANFIELD_POINT)
    for amplitude in DRIVE_SOURCES.keys() & changes.keys():
        config = {k: v for k, v in config.items() if k not in DRIVE_SOURCES[amplitude]}
    return {**config, **changes}


def _derived_amplitudes():
    """``{"rabi": ..., "laser_coupling": ...}`` in Hz as the conversion derives them
    from the drive block of configs/meanfield_point.cfg."""
    system, drive, _ = split_config(load_config(MEANFIELD_POINT))
    amplitudes = meanfield._drive_amplitudes(resolve_system_params(system),
                                             resolve_drive_params(drive))
    return {name: value / TWO_PI for name, value in zip(DRIVE_SOURCES, amplitudes)}


def _rejected_blocks(amplitude):
    """``{id: block}`` of the blocks of ``amplitude``, in config units, that its source rule
    rejects: the amplitude beside each conversion field, the power without each other
    field (absent or 0) and each conversion field alone, at the values of
    configs/meanfield_point.cfg."""
    power, *others = conversion = DRIVE_SOURCES[amplitude]
    full = {name: load_config(MEANFIELD_POINT)[name] for name in conversion}
    given = {amplitude: _derived_amplitudes()[amplitude]}
    cases = {f"{amplitude}+{name}": {**given, name: full[name]} for name in conversion}
    for name in others:
        cases[f"{power}-without-{name}"] = {k: v for k, v in full.items() if k != name}
        cases[f"{power}-with-{name}=0"] = {**full, name: 0.0}
    for name in conversion:
        if {name: full[name]} not in cases.values():  # laser_power alone is one case already
            cases[f"{name}-alone"] = {name: full[name]}
    return cases


REJECTED = [(amplitude, case, block) for amplitude in DRIVE_SOURCES
            for case, block in _rejected_blocks(amplitude).items()]


@pytest.mark.parametrize("amplitude, block", [(a, b) for a, _, b in REJECTED],
                         ids=[case for _, case, _ in REJECTED])
def test_a_drive_amplitude_without_exactly_one_source_is_a_domain_error(tmp_path, capsys,
                                                                        amplitude, block):
    named = ", ".join(name for name, value in block.items() if value)
    message = rf"^{amplitude} needs one source: itself, or .* all nonzero; got {named} nonzero$"
    with pytest.raises(DomainError, match=message):
        DriveParams(**block)
    _, drive, _ = split_config(load_config(MEANFIELD_POINT))
    cleared = dict.fromkeys((amplitude, *DRIVE_SOURCES[amplitude]), 0.0)
    with pytest.raises(DomainError, match=message):
        dataclasses.replace(resolve_drive_params(drive), **{**cleared, **block})
    # block in place of the amplitude's source (an amplitude of 0 gives none); the
    # other amplitude keeps the power block of the shipped config
    config = {**_meanfield_config(**{amplitude: 0.0}), **block}
    with pytest.raises(DomainError, match=message):
        run_point(config)
    axis = {"axis1": "temperature", "axis1_start": 0.01, "axis1_stop": 0.02, "axis1_count": 2}
    fixed = {key: value for key, value in config.items() if key != "temperature"}
    table = run_sweep(sweep_spec_from_config({**fixed, **axis}))
    reason = table.columns.index("reason")
    assert [row[reason] for row in table.rows] == ["nonphysical", "nonphysical"]
    cfg = tmp_path / "drive.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in config.items()))
    assert cli_main(["point", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {amplitude} needs one source: ") and f"got {named} nonzero" in err


def test_every_drive_key_a_block_names_takes_effect_or_is_a_domain_error():
    assert DRIVE_SOURCES == {"rabi": ("drive_power", "sphere_radius", "spin_count", "gyromagnetic_ratio"),
                             "laser_coupling": ("laser_power", "drive_freq_2")}
    # every nonempty subset of the two amplitudes and their conversion fields, beside both
    # bare couplings: rabi and laser_coupling at the values the conversion derives,
    # the other keys at the values of configs/meanfield_point.cfg
    system, drive, _ = split_config(load_config(MEANFIELD_POINT))
    values = {**drive, **_derived_amplitudes()}
    names = [name for amplitude, conversion in DRIVE_SOURCES.items()
             for name in (amplitude, *conversion)]

    def outcome(block):
        try:
            return resolve_point({**system, **block}, "meanfield")
        except MagnomechError as exc:
            return type(exc), str(exc)

    accepted = 0
    for mask in range(1, 2**len(names)):
        named = {name for bit, name in enumerate(names) if mask >> bit & 1}
        block = {name: values[name] for name in ("bare_D_mb1", "bare_D_cb2", *sorted(named))}
        sources = [named & {amplitude, *conversion} for amplitude, conversion in DRIVE_SOURCES.items()]
        base = outcome(block)
        if not all(source in (set(), {amplitude}, set(conversion))
                   for source, (amplitude, conversion) in zip(sources, DRIVE_SOURCES.items())):
            assert base[0] is DomainError, named
            continue
        # the block resolves, with the effective coupling of each drive it gives
        accepted += 1
        assert [base.G_m != 0, base.G_c != 0] == [bool(source) for source in sources], named
        for name in block:
            assert outcome({**block, name: 1.5 * block[name]}) != base, (named, name)
    assert accepted == 8  # three shapes per amplitude, less the undriven block


#: Drive blocks holding a value that cannot take effect in meanfield mode, each with its
#: error: a drive on while its bare coupling is 0, or a bare coupling with no drive on.
UNCOUPLED = {
    "both-drives-without-couplings": ({"rabi": 1e6, "laser_coupling": 1e6},
                                      "rabi cannot take effect with bare_D_mb1 = 0"),
    "couplings-without-drives": ({"bare_D_mb1": 0.1, "bare_D_cb2": 100},
                                 "bare_D_mb1, bare_D_cb2 cannot take effect with no drive on"),
    "laser-power-without-its-coupling": (
        {"rabi": 1e6, "bare_D_mb1": 0.1, "laser_power": 0.03, "drive_freq_2": 1.934e14},
        "laser_power, drive_freq_2 cannot take effect with bare_D_cb2 = 0"),
}


@pytest.mark.parametrize("block, message", UNCOUPLED.values(), ids=UNCOUPLED)
def test_a_drive_value_that_cannot_take_effect_is_a_domain_error(block, message):
    config = {"coupling_mode": "meanfield", **block}
    with pytest.raises(DomainError, match=f"^{message}$"):
        run_point(config)
    axis = {"axis1": "temperature", "axis1_start": 0.01, "axis1_stop": 0.02, "axis1_count": 2}
    table = run_sweep(sweep_spec_from_config({**config, **axis}))
    reason = table.columns.index("reason")
    assert [row[reason] for row in table.rows] == ["nonphysical", "nonphysical"]


def test_a_bare_coupling_of_an_undriven_mode_acts_through_the_other_drive():
    # only the magnon drive is on, yet bare_D_cb2 shifts the optical detuning through
    # the displacements that drive sets: a value that takes effect, not an error
    config = {"coupling_mode": "meanfield", "rabi": 5e12, "bare_D_mb1": 0.1}
    near, far = (resolve_point({**config, "bare_D_cb2": value}) for value in (100, 50))
    assert near.G_c == far.G_c == 0.0
    assert abs(near.delta_c_tilde - far.delta_c_tilde) > 1e4


#: Finite values, one key at a time, at which the mean-field chain on
#: configs/meanfield_point.cfg overflows or divides by zero; an amplitude
#: replaces the fields its conversion reads.
EXTREME_VALUES = [
    ("rabi", 1e200), ("laser_coupling", 1e200), ("D_ma", 1e200), ("D_b1b2", 1e200),
    ("gyromagnetic_ratio", 1e200), ("drive_power", 1e300),
    ("sphere_radius", 1e-200), ("drive_freq_2", 1e-300),
    ("omega_b1", 1e300), ("gamma_b1", 1e300), ("omega_b2", 1e300), ("gamma_b2", 1e300),
]


@pytest.mark.parametrize("key, value", EXTREME_VALUES, ids=[key for key, _ in EXTREME_VALUES])
def test_extreme_finite_value_is_a_solver_error_and_a_nonphysical_row(key, value):
    config = _meanfield_config(**{key: value})
    with pytest.raises(SolverError, match="floating-point"):
        run_point(config)
    axis = {"axis1": "temperature", "axis1_start": 0.01, "axis1_stop": 0.02, "axis1_count": 2}
    del config["temperature"]  # the axis gives it
    table = run_sweep(sweep_spec_from_config({**config, **axis}))
    reason = table.columns.index("reason")
    assert [row[reason] for row in table.rows] == ["nonphysical", "nonphysical"]


def test_singular_and_unconverged_points_are_singular_rows():
    config = {**load_config(MEANFIELD_POINT), "delta_m_tilde": CYCLING[0], "measures": "entanglement"}
    # without the b1-b2 coupling the mechanical denominator is a product of two
    # terms of order 1e-169 rad/s, which underflows to 0
    tiny = {**dict.fromkeys(("omega_b1", "omega_b2", "gamma_b1", "gamma_b2"), 1e-170),
            "D_b1b2": 0.0}
    for error, cell in ((SingularPointError, {"reflectivity": 0.5, "delta_c_tilde": 0.0}),
                        (SingularPointError, tiny),
                        (ConvergenceError, {"reflectivity": 0.0, "delta_c_tilde": CYCLING[1]})):
        with pytest.raises(error):
            run_point({**config, **cell})
    # an unconverged solve failed its contract, with the row code of a singular point
    assert issubclass(ConvergenceError, SolverError) and ConvergenceError.reason == "singular"
    axes = {"axis1": "reflectivity", "axis1_start": 0.0, "axis1_stop": 0.5, "axis1_count": 2,
            "axis2": "delta_c_tilde", "axis2_start": 0.0, "axis2_stop": CYCLING[1], "axis2_count": 2}
    table = run_sweep(sweep_spec_from_config({**config, **axes}))
    reason = table.columns.index("reason")
    # cells (R, delta_c): (0, 0) fails the gate, (0, cycling) and (0.5, cycling)
    # do not converge, (0.5, 0) has a vanishing optical denominator
    assert [row[reason] for row in table.rows] == ["unstable", "singular", "singular", "singular"]


# hbar * 1e-300 underflows to 0, so the optical drive conversion divides by zero
@pytest.mark.parametrize("key, value, exception", [("rabi", 1e200, "OverflowError"),
                                                   ("drive_freq_2", 1e-300, "ZeroDivisionError")],
                         ids=["rabi", "drive_freq_2"])
def test_overflow_message_names_the_computation_and_the_exception(key, value, exception):
    config = _meanfield_config(**{key: value})
    with pytest.raises(SolverError, match="floating-point failure in the mean-field solve: "
                                          + exception):
        run_point(config)


def test_solve_drives_a_raw_drive_block():
    # the drive block of configs/meanfield_point.cfg as given: powers, no amplitudes
    system, drive, _ = split_config(load_config(MEANFIELD_POINT))
    params, raw = resolve_system_params(system), resolve_drive_params(drive)
    assert raw.rabi == raw.laser_coupling == 0.0
    field = math.sqrt(2.0 * raw.drive_power * mu_0 / (math.pi * c_light)) / raw.sphere_radius
    rabi = (math.sqrt(5.0) / 4.0) * raw.gyromagnetic_ratio * math.sqrt(raw.spin_count) * field
    laser_coupling = math.sqrt(2.0 * params.gamma_c * raw.laser_power / (hbar * raw.drive_freq_2))
    amplitudes = DriveParams(rabi=rabi, laser_coupling=laser_coupling,
                             bare_D_mb1=raw.bare_D_mb1, bare_D_cb2=raw.bare_D_cb2)
    expected = _reference_solve(params, amplitudes)
    got = solve_self_consistent(params, raw)
    assert repr(got) == repr(expected)
    assert got.g_m_eff != 0 and got.g_c_eff != 0


def test_meanfield_resolve_point_builds_one_drive_params(monkeypatch):
    built = []
    post_init = DriveParams.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(DriveParams, "__post_init__", counting)
    params = resolve_point(load_config(MEANFIELD_POINT), "meanfield")
    assert len(built) == 1 and params.G_m > 0 and params.G_c > 0


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


def _reference_solve(p, d, orbit=None, stop=None):
    """The damped displacement iteration written out longhand.

    The detunings at which each step evaluates the amplitudes, step 0 at
    index 0, are appended to ``orbit``.  A step numbered ``stop`` that does
    not converge ends the iteration as the solver ends an orbit that repeats.
    """
    orbit = [] if orbit is None else orbit
    shift = 2.0 * p.gamma_c * p.reflectivity * math.sin(p.theta)
    delta_m0 = p.delta_m_tilde + p.barnett_shift
    delta_c0 = p.delta_c_tilde + shift
    x1 = 0.0
    x2 = 0.0
    orbit.append((delta_m0, delta_c0))
    previous = _reference_amplitudes(p, d, delta_m0, delta_c0)
    x1 += DAMPING * (previous.b1_avg.real - x1)
    x2 += DAMPING * (previous.b2_avg.real - x2)
    for iteration in range(1, MAX_ITERATIONS + 1):
        orbit.append((delta_m0 + 2.0 * d.bare_D_mb1 * x1, delta_c0 - 2.0 * d.bare_D_cb2 * x2))
        current = _reference_amplitudes(p, d, *orbit[-1])
        pairs = [(getattr(current, k), getattr(previous, k))
                 for k in ("m_avg", "c_avg", "b1_avg", "b2_avg")]
        changes = [abs(a - b) / (abs(b) + 1e-30) for a, b in pairs]
        if all(change < CONVERGENCE_TOL for change in changes):
            return dataclasses.replace(current, iterations=iteration)
        if iteration == stop:
            raise ConvergenceError(
                f"mean-field iteration {REPEATS} by step {stop} "
                f"(last relative change {max(changes):.3e})",
                residual=max(changes),
            )
        previous = current
        x1 += DAMPING * (current.b1_avg.real - x1)
        x2 += DAMPING * (current.b2_avg.real - x2)
    raise ConvergenceError(
        f"mean-field iteration did not converge in {MAX_ITERATIONS} steps "
        f"(last relative change {max(changes):.3e})",
        residual=max(changes),
    )


def _outcome(solve, *args):
    try:
        return solve(*args)
    except (ConvergenceError, SingularPointError) as exc:
        return type(exc), str(exc), getattr(exc, "residual", None)


def _solve_matching_the_reference(params, drives):
    """The solver's outcome, checked bit for bit against the longhand
    reference's, and the reference's orbit run to convergence or to
    MAX_ITERATIONS.

    Where that orbit comes back to a displacement pair that the solver keeps
    (:func:`_first_kept_repeat`), the reference stops at that step, as the
    solver must.
    """
    got = _outcome(solve_self_consistent, params, drives)
    orbit = []
    expected = _outcome(_reference_solve, params, drives, orbit)
    stop = _first_kept_repeat(orbit)
    if stop is not None:
        expected = _outcome(_reference_solve, params, drives, None, stop)
    # repr tells -0.0 from 0.0, which == does not
    assert got == expected and repr(got) == repr(expected)
    return got, orbit


def _meanfield_point(delta_m_tilde, delta_c_tilde, **changes):
    """``(params, drives)`` of configs/meanfield_point.cfg at the given detunings (Hz),
    with the system keys of ``changes`` (config units) set too."""
    system, drive, _ = split_config(load_config(MEANFIELD_POINT))
    params = resolve_system_params(
        {**system, "delta_m_tilde": delta_m_tilde, "delta_c_tilde": delta_c_tilde, **changes}
    )
    return params, _completed(params, resolve_drive_params(drive))


def _meanfield_cases():
    """A seeded draw over the detuning plane of configs/meanfield_point.cfg,
    the cycling and non-repeating points, a point where no two dampings or
    detunings are equal, and the no-back-action, zero-drive and
    singular-optics cases."""
    rng = random.Random(0)
    cases = [_meanfield_point(rng.uniform(-40.3e6, 0.0), rng.uniform(0.0, 40.22e6))
             for _ in range(12)]
    cases += [_meanfield_point(*point) for point in (CYCLING, NON_REPEATING, LATE_CYCLING)]
    # gamma_a, gamma_m and gamma_c distinct, delta_a apart from delta_m_tilde,
    # with a feedback loop and a Barnett shift: a solve that reads one of these
    # fields for another moves this point's amplitudes
    cases.append(_meanfield_point(-20.15e6, 20.11e6, gamma_a=1.3e6, gamma_m=0.9e6, gamma_c=1.1e6,
                                  delta_a=-18.9e6, reflectivity=0.35, theta=math.pi,
                                  barnett_shift=3.1e6))
    baseline = resolve_system_params({})
    cases.append((baseline, DriveParams(rabi=cases[0][1].rabi, laser_coupling=cases[0][1].laser_coupling)))
    cases.append((baseline, DriveParams(bare_D_mb1=1.0, bare_D_cb2=1.0)))
    singular = resolve_system_params({"reflectivity": 0.5, "theta": 0.0, "delta_c_tilde": 0.0})
    cases.append((singular, DriveParams(laser_coupling=1.0)))
    return cases


def test_iteration_is_bit_identical_to_the_longhand_reference():
    outcomes = [_solve_matching_the_reference(params, drives)[0]
                for params, drives in _meanfield_cases()]
    # the draw covers every kind of outcome
    iterations = [o.iterations for o in outcomes if isinstance(o, SteadyAmplitudes)]
    assert max(iterations) > 1 and 1 in iterations
    kinds = {(o[0], REPEATS in o[1]) for o in outcomes if isinstance(o, tuple)}
    assert kinds == {(ConvergenceError, True), (ConvergenceError, False), (SingularPointError, False)}


def _first_kept_repeat(orbit):
    """Index of the first step evaluated at the displacement pair that the
    cycle detection keeps: the pair of step 1, then that of step k + 1 after
    every iteration k that is a multiple of SAVE_GAP; None if there is none."""
    kept = 1
    for index in range(2, len(orbit)):
        if orbit[index] == orbit[kept]:
            return index
        if (index - 1) % SAVE_GAP == 0:
            kept = index
    return None


def _assert_stops_soon_after_its_cycle(point, period):
    """The solve at ``point`` stops on a cycle of ``period`` steps, at the step
    where its orbit first repeats a kept pair and no later than
    SAVE_GAP + period + 1 steps after the orbit entered the cycle.  Returns
    the orbit and the step of entry."""
    got, orbit = _solve_matching_the_reference(*_meanfield_point(*point))
    stop = _first_kept_repeat(orbit)
    entry = next(i for i in range(len(orbit) - period) if orbit[i] == orbit[i + period])
    assert all(orbit[i] == orbit[i + period] for i in range(entry, len(orbit) - period))
    assert stop - entry <= SAVE_GAP + period + 1
    # the step at the repeated pair is the last one: it completes one period
    assert got[0] is ConvergenceError and got[1].startswith(
        f"mean-field iteration {REPEATS} by step {stop} (")
    return orbit[:stop + 1], entry


def test_iteration_stops_once_its_orbit_repeats():
    orbit, _ = _assert_stops_soon_after_its_cycle(CYCLING, 2)
    assert orbit[-1] == orbit[-3] != orbit[-2]
    got, orbit = _solve_matching_the_reference(*_meanfield_point(*NON_REPEATING))
    assert got[1].startswith(f"mean-field iteration did not converge in {MAX_ITERATIONS} steps (")
    assert len(orbit) == MAX_ITERATIONS + 1 and _first_kept_repeat(orbit) is None


def test_iteration_stops_on_a_cycle_entered_late():
    _, entry = _assert_stops_soon_after_its_cycle(LATE_CYCLING, 8)
    assert entry > 8 * SAVE_GAP


#: A drive whose displacements leave double range: with bare_D_mb1 = 1e300
#: the first displacement pair is finite and shifts the magnon detuning to
#: infinity, so every later step is NaN.
OVERFLOWING_DRIVE = {"rabi": 1e6, "bare_D_mb1": 1e300}


@pytest.mark.parametrize("save_gap, message", [
    (SAVE_GAP, "mean-field displacements left double range"),
    (MAX_ITERATIONS, "mean-field relative change left double range"),
], ids=["kept-pair", "last-change"])
def test_a_drive_that_overflows_is_a_solver_error_and_a_nonphysical_row(monkeypatch, save_gap,
                                                                        message):
    # with the pair kept only after step 0, the NaN runs on to the cap, where
    # the last relative change is checked
    monkeypatch.setattr(meanfield, "SAVE_GAP", save_gap)
    params = resolve_system_params({})
    with pytest.raises(SolverError) as caught:
        solve_self_consistent(params, resolve_drive_params(OVERFLOWING_DRIVE))
    assert str(caught.value) == ("floating-point failure in the mean-field solve: "
                                 f"OverflowError: {message}")
    assert not isinstance(caught.value, ConvergenceError) and caught.value.reason == "nonphysical"
    axis = {"axis1": "temperature", "axis1_start": 0.01, "axis1_stop": 0.02, "axis1_count": 2}
    config = {**OVERFLOWING_DRIVE, **axis, "coupling_mode": "meanfield"}
    table = run_sweep(sweep_spec_from_config(config))
    reason = table.columns.index("reason")
    assert [row[reason] for row in table.rows] == ["nonphysical", "nonphysical"]


def test_detuning_plane_outcomes_match_the_longhand_reference():
    # a seeded 10x10 sub-grid of the 25x25 plane of the meanfield-detuning
    # benchmark workload, which holds all three kinds of outcome
    rng = random.Random(0)
    grid_m = np.linspace(-40.3e6, 0.0, 25)
    grid_c = np.linspace(0.0, 40.22e6, 25)
    rows, columns = sorted(rng.sample(range(25), 10)), sorted(rng.sample(range(25), 10))
    kinds = set()
    for i in rows:
        for j in columns:
            got, orbit = _solve_matching_the_reference(*_meanfield_point(float(grid_m[i]),
                                                                         float(grid_c[j])))
            if isinstance(got, SteadyAmplitudes):
                kinds.add("converged")
            elif _first_kept_repeat(orbit) is None:
                assert len(orbit) == MAX_ITERATIONS + 1
                kinds.add("non-repeating")
            else:
                assert REPEATS in got[1]
                kinds.add("cycling")
    assert kinds == {"converged", "cycling", "non-repeating"}
