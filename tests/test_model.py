import dataclasses
import math

import numpy as np
import pytest
import scipy.constants
from scipy.constants import hbar, k as k_B

from magnomech import (
    DomainError,
    DriveParams,
    SystemParams,
    build_diffusion,
    build_drift,
    resolve_system_params,
)
from magnomech.model import MODE_ORDER
from magnomech.params import HBAR, K_B, MU_0, SPEED_OF_LIGHT, TWO_PI

# Bose occupation at 20.15 MHz / 10 mK, frozen from a 40-digit mpmath
# evaluation of 1/(exp(hbar*omega/kB*T) - 1) with CODATA constants.
N_B1_10MK = 9.8488113869018049

SYSTEM_FIELDS = [f.name for f in dataclasses.fields(SystemParams)]
DRIVE_FIELDS = [f.name for f in dataclasses.fields(DriveParams)]
POSITIVE_FIELDS = ["omega_a", "omega_m", "omega_b1", "omega_b2", "gamma_a", "gamma_m",
                   "gamma_c", "gamma_b1", "gamma_b2", "lambda_c"]

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


#: A point whose 21 SystemParams fields are pairwise distinct, so that a model
#: entry reading one field in place of another changes a number.  lambda_c of
#: 2 mm puts the optical occupation (about 1e-7 at 0.45 K) within reach of
#: double precision.
DISTINCT = {
    "omega_a": 9.7e9, "omega_m": 10.3e9, "omega_b1": 20.15e6, "omega_b2": 19.87e6,
    "gamma_a": 1.3e6, "gamma_m": 0.9e6, "gamma_c": 1.1e6, "gamma_b1": 110.0, "gamma_b2": 93.0,
    "D_ma": 1.6e6, "D_b1b2": 2.3e6, "G_m": 0.7e6, "G_c": 2.6e6,
    "delta_m_tilde": -20.3e6, "delta_c_tilde": 19.6e6, "delta_a": -18.9e6,
    "barnett_shift": 3.1e6, "reflectivity": 0.35, "theta": 0.6, "temperature": 0.45,
    "lambda_c": 2e-3,
}


@pytest.fixture
def distinct():
    p = resolve_system_params(DISTINCT)
    assert len({getattr(p, name) for name in SYSTEM_FIELDS}) == len(SYSTEM_FIELDS) == 21
    return p


def test_drift_entries_at_a_point_where_no_two_parameters_are_equal(distinct):
    p = distinct
    x_b1, y_b1, x_b2, y_b2, x_m, y_m, x_c, y_c, x_a, y_a = range(10)
    root2 = math.sqrt(2.0)
    delta_m = p.delta_m_tilde + p.barnett_shift
    gamma_c_fb = p.gamma_c * (1.0 - 2.0 * p.reflectivity * math.cos(p.theta))
    delta_c = p.delta_c_tilde + 2.0 * p.gamma_c * p.reflectivity * math.sin(p.theta)
    # row r holds the coefficients of d(quadrature r)/dt
    expected = {
        (x_b1, x_b1): -p.gamma_b1, (x_b1, y_b1): p.omega_b1, (x_b1, y_b2): p.D_b1b2,
        (y_b1, x_b1): -p.omega_b1, (y_b1, y_b1): -p.gamma_b1, (y_b1, x_b2): -p.D_b1b2,
        (y_b1, y_m): -root2 * p.G_m,
        (x_b2, y_b1): p.D_b1b2, (x_b2, x_b2): -p.gamma_b2, (x_b2, y_b2): p.omega_b2,
        (y_b2, x_b1): -p.D_b1b2, (y_b2, x_b2): -p.omega_b2, (y_b2, y_b2): -p.gamma_b2,
        (y_b2, y_c): -root2 * p.G_c,
        (x_m, x_b1): root2 * p.G_m, (x_m, x_m): -p.gamma_m, (x_m, y_m): delta_m,
        (x_m, y_a): p.D_ma,
        (y_m, x_m): -delta_m, (y_m, y_m): -p.gamma_m, (y_m, x_a): -p.D_ma,
        (x_c, x_b2): root2 * p.G_c, (x_c, x_c): -gamma_c_fb, (x_c, y_c): delta_c,
        (y_c, x_c): -delta_c, (y_c, y_c): -gamma_c_fb,
        (x_a, y_m): p.D_ma, (x_a, x_a): -p.gamma_a, (x_a, y_a): p.delta_a,
        (y_a, x_m): -p.D_ma, (y_a, x_a): -p.delta_a, (y_a, y_a): -p.gamma_a,
    }
    assert len(expected) == 32 and all(expected.values())
    drift = build_drift(p)
    # every entry not in expected must be exactly 0
    got = {(int(i), int(j)): drift[i, j] for i, j in zip(*np.nonzero(drift))}
    assert got == expected


def test_diffusion_entries_at_a_point_where_no_two_parameters_are_equal(distinct):
    p = distinct
    loop = (1.0 - p.reflectivity * math.cos(p.theta)) ** 2 + (p.reflectivity * math.sin(p.theta)) ** 2
    rates = {
        "b1": (p.gamma_b1, p.omega_b1), "b2": (p.gamma_b2, p.omega_b2),
        "m": (p.gamma_m, p.omega_m), "c": (p.gamma_c * (1.0 - p.reflectivity**2) * loop, p.omega_c),
        "a": (p.gamma_a, p.omega_a),
    }
    diffusion = build_diffusion(p)
    assert np.count_nonzero(diffusion - np.diag(np.diag(diffusion))) == 0
    for i, mode in enumerate(MODE_ORDER):
        gamma, omega = rates[mode]
        nbar = 1.0 / math.expm1(hbar * omega / (k_B * p.temperature))
        assert nbar > 1e-8, mode  # every occupation moves its entry
        for row in (2 * i, 2 * i + 1):
            assert diffusion[row, row] == pytest.approx(gamma * (2.0 * nbar + 1.0), rel=1e-14), mode


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
    # kB*T underflows to 0 at a subnormal temperature; nbar must not divide by it
    @pytest.mark.parametrize("temperature", [0.0, 5e-324, 1e-310])
    def test_cold_no_feedback(self, temperature):
        p = resolve_system_params({"temperature": temperature})
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
        # electromagnetic modes are frozen out at 10 mK: nbar ~ 1.4e-21 at
        # 10 GHz, and the optical exponent (~1e6) is past 700, where nbar is 0
        assert diag[4] == baseline.gamma_m and diag[8] == baseline.gamma_a
        assert hbar * baseline.omega_c / (k_B * baseline.temperature) > 700
        assert diag[6] == baseline.gamma_c * baseline.fb_noise_factor

    def test_monotone_in_temperature(self, baseline):
        loads = [build_diffusion(dataclasses.replace(baseline, temperature=t))[0, 0]
                 for t in (0.001, 0.01, 0.1, 1.0)]
        assert all(a < b for a, b in zip(loads, loads[1:]))

    def test_numpy_scalar_temperature_gives_the_float_value(self, baseline):
        single = dataclasses.replace(baseline, temperature=np.float32(0.01))
        double = dataclasses.replace(baseline, temperature=float(np.float32(0.01)))
        assert np.array_equal(build_diffusion(single), build_diffusion(double))

    @pytest.mark.parametrize("changes", [{"temperature": 1e308},
                                         {"omega_b1": 1e-300, "temperature": 1.0}],
                             ids=["huge-temperature", "tiny-omega"])
    def test_overflowing_occupancy_is_a_domain_error(self, baseline, changes):
        with pytest.raises(DomainError, match="overflows"):
            build_diffusion(dataclasses.replace(baseline, **changes))

    def test_positivity_for_random_valid_params(self, rng):
        for _ in range(25):
            config = {
                "temperature": float(rng.uniform(0, 1)),
                "reflectivity": float(rng.uniform(0, 0.99)),
                "theta": float(rng.uniform(-math.pi, math.pi)),
            }
            diag = np.diag(build_diffusion(resolve_system_params(config)))
            assert np.all(diag >= 0)


class TestSystemParams:
    def test_transmissivity_identity(self):
        for refl in (0.0, 0.3, 0.9, 0.999):
            p = resolve_system_params({"reflectivity": refl})
            assert p.psi == math.sqrt(p.psi_sq)
            assert p.psi_sq + refl**2 == pytest.approx(1.0, abs=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            resolve_system_params({"temperature": -0.1})

    @pytest.mark.parametrize("value", [True, "x", None, 1j, math.nan, math.inf],
                             ids=["bool", "text", "none", "complex", "nan", "inf"])
    @pytest.mark.parametrize("name", SYSTEM_FIELDS + DRIVE_FIELDS)
    def test_field_that_is_not_a_finite_real_number_is_a_domain_error(self, baseline, name, value):
        params = baseline if name in SYSTEM_FIELDS else DriveParams()
        with pytest.raises(DomainError, match=rf"^{name} must be a finite real number, got "):
            dataclasses.replace(params, **{name: value})

    def test_int_and_numpy_fields_are_stored_as_floats(self, baseline):
        params = dataclasses.replace(baseline, temperature=1, theta=np.float32(0.5))
        drives = DriveParams(spin_count=10**16, drive_power=np.float32(4e-3), sphere_radius=1e-4,
                             gyromagnetic_ratio=1.0)
        for value, expected in ((params.temperature, 1.0), (params.theta, 0.5),
                                (drives.spin_count, 1e16),
                                (drives.drive_power, float(np.float32(4e-3)))):
            assert type(value) is float and value == expected

    @pytest.mark.parametrize("name", ["drive_power", "laser_power", "spin_count", "sphere_radius",
                                      "drive_freq_2"])
    def test_negative_drive_field_is_a_domain_error(self, name):
        with pytest.raises(DomainError, match=rf"^{name} must be >= 0, got -1.0$"):
            DriveParams(**{name: -1.0})

    @pytest.mark.parametrize("value", [0.0, -1.0])
    @pytest.mark.parametrize("name", POSITIVE_FIELDS)
    def test_nonpositive_field_is_a_domain_error(self, baseline, name, value):
        with pytest.raises(DomainError, match=rf"^{name} must be > 0, got "):
            dataclasses.replace(baseline, **{name: value})

    def test_lambda_c_whose_omega_c_overflows_is_a_domain_error(self, baseline):
        assert math.isfinite(dataclasses.replace(baseline, lambda_c=1.1e-299).omega_c)
        with pytest.raises(DomainError, match=r"^lambda_c 1e-300 m is too small"):
            dataclasses.replace(baseline, lambda_c=1e-300)

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


@pytest.mark.parametrize("value, name", [(HBAR, "hbar"), (K_B, "k"), (MU_0, "mu_0"),
                                         (SPEED_OF_LIGHT, "c")], ids=["hbar", "k", "mu_0", "c"])
def test_physical_constants_are_scipys(value, name):
    assert value == getattr(scipy.constants, name)
