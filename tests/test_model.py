import math

import numpy as np
import pytest

from magnomech import (
    DomainError,
    DriveParams,
    MODE_ORDER,
    SystemParams,
    build_diffusion,
    build_drift,
    drive_conversions,
    resolve_system_params,
    thermal_occupancy,
)
from magnomech.params import TWO_PI

# Bose occupation at 20.15 MHz / 10 mK, frozen from a 40-digit mpmath
# evaluation of 1/(exp(hbar*omega/kB*T) - 1) with CODATA constants.
N_B1_10MK = 9.8488113869018049


class TestThermalOccupancy:
    def test_mechanical_mode_at_10mk(self):
        n = thermal_occupancy(TWO_PI * 20.15e6, 0.010)
        assert n == pytest.approx(N_B1_10MK, rel=1e-8)

    def test_gigahertz_mode_is_frozen_out(self):
        # exponent ~ 48, occupation ~ 1.4e-21
        assert thermal_occupancy(TWO_PI * 10e9, 0.010) < 1e-20

    def test_zero_temperature_is_exact_zero(self):
        assert thermal_occupancy(TWO_PI * 1e6, 0.0) == 0.0

    @pytest.mark.parametrize("temperature", [5e-324, 1e-310])
    def test_subnormal_temperature_is_exact_zero(self, temperature):
        # kB*T underflows to 0 here; the occupation must not divide by it
        assert thermal_occupancy(TWO_PI * 1e6, temperature) == 0.0

    def test_no_overflow_at_huge_exponent(self):
        # hbar*omega/kB*T around 1e6: must underflow to 0, not raise
        assert thermal_occupancy(2 * math.pi * 200e12, 0.010) == 0.0

    @pytest.mark.parametrize("omega, temperature", [
        (TWO_PI * 20e6, math.nan), (math.nan, 0.01), (TWO_PI * 20e6, math.inf), (math.inf, 0.01),
    ], ids=["nan-temperature", "nan-omega", "inf-temperature", "inf-omega"])
    def test_non_finite_input_is_a_domain_error(self, omega, temperature):
        with pytest.raises(DomainError, match="finite"):
            thermal_occupancy(omega, temperature)

    @pytest.mark.parametrize("omega, temperature", [
        (1e9, True), (True, 0.01), ("1e9", 0.01), (1e9, "0.01"), (None, 0.01), (1e9, None),
    ], ids=["bool-temperature", "bool-omega", "text-omega", "text-temperature",
            "none-omega", "none-temperature"])
    def test_input_that_is_not_a_real_number_is_a_domain_error(self, omega, temperature):
        with pytest.raises(DomainError, match="finite number"):
            thermal_occupancy(omega, temperature)

    def test_numpy_scalars_give_the_float_value(self):
        value = thermal_occupancy(np.float64(TWO_PI * 20.15e6), np.float32(0.01))
        assert value == thermal_occupancy(TWO_PI * 20.15e6, float(np.float32(0.01)))

    @pytest.mark.parametrize("omega, temperature", [(TWO_PI * 20e6, 1e308), (1e-300, 1.0)],
                             ids=["huge-temperature", "tiny-omega"])
    def test_overflowing_occupancy_is_a_domain_error(self, omega, temperature):
        with pytest.raises(DomainError, match="overflows"):
            thermal_occupancy(omega, temperature)

    def test_monotone_in_temperature(self):
        omega = TWO_PI * 20e6
        temps = [0.001, 0.01, 0.1, 1.0]
        values = [thermal_occupancy(omega, t) for t in temps]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(DomainError):
            thermal_occupancy(0.0, 0.01)
        with pytest.raises(DomainError):
            thermal_occupancy(-1.0, 0.01)


def _feedback_rates(reflectivity, theta):
    p = resolve_system_params({"gamma_c": 1e6, "reflectivity": reflectivity, "theta": theta})
    return p.gamma_c_fb, p.fb_shift, p.fb_noise_factor


class TestFeedbackRates:
    def test_no_feedback_is_identity(self):
        gamma = TWO_PI * 1e6
        for theta in (0.0, 0.7, math.pi):
            assert _feedback_rates(0.0, theta) == (gamma, 0.0, 1.0)

    def test_high_reflectivity_zero_phase(self):
        gamma = TWO_PI * 1e6
        g_fb, shift, factor = _feedback_rates(0.9, 0.0)
        assert g_fb == pytest.approx(-0.8 * gamma, rel=1e-12)
        assert shift == 0.0
        # psi^2 = 0.19, |1 - 0.9|^2 = 0.01
        assert factor == pytest.approx(0.0019, rel=1e-12)

    def test_quarter_phase(self):
        gamma = TWO_PI * 1e6
        g_fb, shift, factor = _feedback_rates(0.5, math.pi / 2)
        assert g_fb == pytest.approx(gamma, rel=1e-12)
        assert shift == pytest.approx(gamma, rel=1e-12)
        # psi^2 = 0.75, |1 - 0.5i|^2 = 1.25
        assert factor == pytest.approx(0.9375, rel=1e-12)

    def test_reflectivity_domain(self):
        with pytest.raises(DomainError):
            _feedback_rates(1.0, 0.0)
        with pytest.raises(DomainError):
            _feedback_rates(-0.1, 0.0)


def test_drift_decoupled_spectrum():
    params = resolve_system_params({"D_ma": 0, "D_b1b2": 0, "G_m": 0, "G_c": 0})
    drift = build_drift(params)
    got = np.sort_complex(np.linalg.eigvals(drift))
    rotations = (
        (params.gamma_b1, params.omega_b1),
        (params.gamma_b2, params.omega_b2),
        (params.gamma_m, params.delta_m_tilde),
        (params.gamma_c, params.delta_c_tilde),
        (params.gamma_a, params.delta_a),
    )
    expected = np.sort_complex(
        np.array([-g + s * 1j * d for g, d in rotations for s in (1, -1)])
    )
    scale = np.abs(expected).max()
    assert np.abs(got - expected).max() < 1e-12 * scale


def test_drift_barnett_antisymmetry(baseline):
    import dataclasses

    shift = 0.2 * baseline.omega_b1
    plus = build_drift(dataclasses.replace(baseline, barnett_shift=+shift))
    minus = build_drift(dataclasses.replace(baseline, barnett_shift=-shift))
    diff = plus - minus
    # only the two magnon-detuning entries may change
    assert diff[4, 5] == pytest.approx(2 * shift, rel=1e-12)
    assert diff[5, 4] == pytest.approx(-2 * shift, rel=1e-12)
    diff[4, 5] = diff[5, 4] = 0.0
    assert np.all(diff == 0.0)


def test_drift_feedback_identity(baseline):
    import dataclasses

    with_loop = dataclasses.replace(baseline, reflectivity=0.0, theta=1.3)
    assert np.array_equal(build_drift(with_loop), build_drift(baseline))
    assert np.array_equal(build_diffusion(with_loop), build_diffusion(baseline))


def test_drift_baseline_is_stable(baseline):
    eigenvalues = np.linalg.eigvals(build_drift(baseline))
    assert eigenvalues.real.max() < 0


def test_drift_determinism(baseline):
    a1 = build_drift(baseline)
    a2 = build_drift(baseline)
    assert a1.tobytes() == a2.tobytes()
    d1 = build_diffusion(baseline)
    d2 = build_diffusion(baseline)
    assert d1.tobytes() == d2.tobytes()


class TestDiffusion:
    def test_cold_no_feedback(self):
        p = resolve_system_params({"temperature": 0.0})
        diag = np.diag(build_diffusion(p))
        expected = [p.gamma_b1] * 2 + [p.gamma_b2] * 2 + [p.gamma_m] * 2
        expected += [p.gamma_c] * 2 + [p.gamma_a] * 2
        assert np.array_equal(diag, expected)

    def test_cold_with_feedback_scales_optical_entries(self):
        p = resolve_system_params(
            {"temperature": 0.0, "reflectivity": 0.9, "theta": 0.0}
        )
        diag = np.diag(build_diffusion(p))
        assert diag[6] == pytest.approx(0.0019 * p.gamma_c, rel=1e-12)
        assert diag[7] == diag[6]
        # every other entry is untouched
        assert diag[0] == p.gamma_b1 and diag[4] == p.gamma_m and diag[8] == p.gamma_a

    def test_baseline_thermal_loading(self, baseline):
        diag = np.diag(build_diffusion(baseline))
        assert diag[0] == pytest.approx(
            baseline.gamma_b1 * (2 * N_B1_10MK + 1), rel=1e-8
        )
        # electromagnetic modes are frozen out at 10 mK
        for k in (4, 6, 8):
            gamma = (baseline.gamma_m, None, baseline.gamma_c, None, baseline.gamma_a)[k - 4]
            assert diag[k] == pytest.approx(gamma, rel=1e-15)

    def test_positivity_for_random_valid_params(self, rng):
        for _ in range(25):
            config = {
                "temperature": float(rng.uniform(0, 1)),
                "reflectivity": float(rng.uniform(0, 0.99)),
                "theta": float(rng.uniform(-math.pi, math.pi)),
            }
            diag = np.diag(build_diffusion(resolve_system_params(config)))
            assert np.all(diag >= 0)


class TestDriveConversions:
    def test_drive_field_from_power(self):
        # with gyro = N = 1 the Rabi rate is sqrt(5)/4 times the field
        drives = DriveParams(drive_power=4e-3, sphere_radius=100e-6,
                             spin_count=1.0, gyromagnetic_ratio=1.0)
        rabi = drive_conversions(drives, gamma_c=TWO_PI * 1e6).rabi
        field = rabi / (math.sqrt(5.0) / 4.0)
        # frozen from the closed-form expression; the device-level figure
        # usually quoted for these settings is ~3.3e-5 T
        assert field == pytest.approx(3.267116626e-5, rel=1e-6)
        assert field == pytest.approx(3.3e-5, rel=0.02)

    def test_zero_laser_power(self):
        drives = DriveParams(sphere_radius=1e-4, laser_power=0.0)
        assert drive_conversions(drives, gamma_c=TWO_PI * 1e6).laser_coupling == 0.0

    def test_zero_drive_field(self):
        drives = DriveParams(
            sphere_radius=1e-4, spin_count=1e16, gyromagnetic_ratio=TWO_PI * 28e9
        )
        assert drive_conversions(drives, gamma_c=TWO_PI * 1e6).rabi == 0.0

    def test_laser_coupling_magnitude(self):
        omega_laser = TWO_PI * 299792458.0 / 1550e-9
        drives = DriveParams(
            sphere_radius=1e-4, laser_power=30e-3, drive_freq_2=omega_laser
        )
        coupling = drive_conversions(drives, gamma_c=TWO_PI * 1e6).laser_coupling
        expected = math.sqrt(2 * TWO_PI * 1e6 * 30e-3 / (1.0545718176461565e-34 * omega_laser))
        assert coupling == pytest.approx(expected, rel=1e-12)

    def test_bad_radius(self):
        with pytest.raises(DomainError, match="sphere_radius"):
            drive_conversions(DriveParams(drive_power=4e-3, sphere_radius=0.0), gamma_c=1.0)


class TestSystemParams:
    def test_transmissivity_identity(self):
        for refl in (0.0, 0.3, 0.9, 0.999):
            p = resolve_system_params({"reflectivity": refl})
            assert p.psi == math.sqrt(p.psi_sq)
            assert p.psi_sq + refl**2 == pytest.approx(1.0, abs=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            resolve_system_params({"gamma_m": -1.0})
        with pytest.raises(DomainError):
            resolve_system_params({"omega_b1": 0.0})
        with pytest.raises(DomainError):
            resolve_system_params({"reflectivity": 1.0})
        with pytest.raises(DomainError):
            resolve_system_params({"reflectivity": -0.1})
        with pytest.raises(DomainError):
            resolve_system_params({"temperature": -0.1})

    def test_mode_order_is_fixed(self):
        assert MODE_ORDER == ("b1", "b2", "m", "c", "a")

    def test_direct_construction_matches_resolver(self):
        p = resolve_system_params({})
        q = SystemParams(**{f: getattr(p, f) for f in (
            "omega_a", "omega_m", "omega_b1", "omega_b2",
            "gamma_a", "gamma_m", "gamma_c", "gamma_b1", "gamma_b2",
            "D_ma", "D_b1b2", "G_m", "G_c",
            "delta_m_tilde", "delta_c_tilde", "delta_a",
            "barnett_shift", "reflectivity", "theta", "temperature", "lambda_c",
        )})
        assert p == q
