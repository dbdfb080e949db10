"""Linearized model assembly: drift matrix, diffusion matrix, derived rates.

The five modes are ordered ``(b1, b2, m, c, a)``: the two mechanical
modes, then the magnon, the optical whispering-gallery mode and the
microwave cavity, with quadratures (X, Y) per mode.  Matrices are 10x10
and the X quadrature of mode ``i`` sits at row ``2*i``.  The quadrature
normalization puts the vacuum variance at 1/2.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.constants import hbar, k as k_B, mu_0, c as c_light

from .errors import DomainError
from .params import DriveParams, SystemParams

MODE_ORDER = ("b1", "b2", "m", "c", "a")
MODE_INDEX = {name: i for i, name in enumerate(MODE_ORDER)}
N_MODES = len(MODE_ORDER)

#: Symplectic form of the five-mode phase space in (X, Y)-per-mode
#: ordering; its leading 2k x 2k block is the form of the first k modes.
OMEGA = np.kron(np.eye(N_MODES), np.array([[0.0, 1.0], [-1.0, 0.0]]))

_SQRT2 = math.sqrt(2.0)


def thermal_occupancy(omega: float, temperature: float) -> float:
    """Mean thermal occupation of a mode at angular frequency ``omega``.

    Evaluates the Bose factor 1/(exp(hbar*omega/kB*T) - 1).  Returns
    exactly 0 at zero temperature and underflows to 0 once the exponent
    exceeds ~700 (where the occupation is below 1e-300 anyway).
    """
    if omega <= 0:
        raise DomainError("omega must be > 0")
    if temperature < 0:
        raise DomainError("temperature must be >= 0")
    if temperature == 0.0:
        return 0.0
    x = hbar * omega / (k_B * temperature)
    if x > 700.0:
        return 0.0
    return 1.0 / math.expm1(x)


def feedback_rates(gamma_c: float, reflectivity: float, theta: float):
    """Feedback-modified optical rates.

    Returns ``(gamma_c_fb, detuning_shift, noise_factor)``: the effective
    optical damping gamma_c*(1 - 2*L*cos(theta)), the detuning shift
    2*gamma_c*L*sin(theta), and the input-noise scale
    psi^2*|1 - L*exp(i*theta)|^2 with psi^2 = 1 - L^2.

    A negative effective damping is returned as-is; whether the operating
    point is usable is decided later by the stability gate.
    """
    if not 0.0 <= reflectivity < 1.0:
        raise DomainError("reflectivity must lie in [0, 1)")
    gamma_fb = gamma_c * (1.0 - 2.0 * reflectivity * math.cos(theta))
    shift = 2.0 * gamma_c * reflectivity * math.sin(theta)
    psi_sq = 1.0 - reflectivity**2
    loop = 1.0 - reflectivity * cmath.exp(1j * theta)
    noise_factor = psi_sq * (loop.real**2 + loop.imag**2)
    return gamma_fb, shift, noise_factor


def build_drift(params: SystemParams) -> np.ndarray:
    """Assemble the 10x10 drift matrix of the quadrature fluctuations.

    The magnon detuning entry is delta_m_tilde + barnett_shift; the
    optical entries use the feedback-modified damping and detuning from
    :func:`feedback_rates`.  All couplings enter as beam-splitter or
    two-mode-squeezing blocks between the (X, Y) pairs; entries not set
    below are zero.
    """
    p = params
    d_m = p.delta_m_tilde + p.barnett_shift
    gamma_c_fb, shift, _ = feedback_rates(p.gamma_c, p.reflectivity, p.theta)
    d_c = p.delta_c_tilde + shift

    a = np.zeros((2 * N_MODES, 2 * N_MODES))
    # mechanical mode b1
    a[0, 0] = -p.gamma_b1
    a[0, 1] = p.omega_b1
    a[0, 3] = p.D_b1b2
    a[1, 0] = -p.omega_b1
    a[1, 1] = -p.gamma_b1
    a[1, 2] = -p.D_b1b2
    a[1, 5] = -_SQRT2 * p.G_m
    # mechanical mode b2
    a[2, 1] = p.D_b1b2
    a[2, 2] = -p.gamma_b2
    a[2, 3] = p.omega_b2
    a[3, 0] = -p.D_b1b2
    a[3, 2] = -p.omega_b2
    a[3, 3] = -p.gamma_b2
    a[3, 7] = -_SQRT2 * p.G_c
    # magnon
    a[4, 0] = _SQRT2 * p.G_m
    a[4, 4] = -p.gamma_m
    a[4, 5] = d_m
    a[4, 9] = p.D_ma
    a[5, 4] = -d_m
    a[5, 5] = -p.gamma_m
    a[5, 8] = -p.D_ma
    # optical mode
    a[6, 2] = _SQRT2 * p.G_c
    a[6, 6] = -gamma_c_fb
    a[6, 7] = d_c
    a[7, 6] = -d_c
    a[7, 7] = -gamma_c_fb
    # microwave cavity
    a[8, 5] = p.D_ma
    a[8, 8] = -p.gamma_a
    a[8, 9] = p.delta_a
    a[9, 4] = -p.D_ma
    a[9, 8] = -p.delta_a
    a[9, 9] = -p.gamma_a
    return a


def build_diffusion(params: SystemParams) -> np.ndarray:
    """Assemble the diagonal 10x10 diffusion matrix.

    Each mode contributes gamma*(2*nbar + 1) on both of its quadratures,
    with nbar evaluated at the mode's own resonance frequency; the
    optical entries additionally carry the feedback noise factor.
    """
    p = params
    _, _, noise_factor = feedback_rates(p.gamma_c, p.reflectivity, p.theta)
    occupations = (
        thermal_occupancy(p.omega_b1, p.temperature),
        thermal_occupancy(p.omega_b2, p.temperature),
        thermal_occupancy(p.omega_m, p.temperature),
        thermal_occupancy(p.omega_c, p.temperature),
        thermal_occupancy(p.omega_a, p.temperature),
    )
    rates = (p.gamma_b1, p.gamma_b2, p.gamma_m, p.gamma_c * noise_factor, p.gamma_a)
    diag = np.empty(2 * N_MODES)
    for i, (gamma, nbar) in enumerate(zip(rates, occupations)):
        diag[2 * i] = diag[2 * i + 1] = gamma * (2.0 * nbar + 1.0)
    return np.diag(diag)


def drive_conversions(drives: DriveParams, gamma_c: float):
    """Derive the drive amplitudes from laboratory quantities.

    Returns ``(rabi, laser_coupling, drive_field)`` where the drive
    magnetic field is (1/R)*sqrt(2*P0*mu0/(pi*c)), the magnon Rabi rate
    is (sqrt(5)/4)*gyro*sqrt(N)*H_d, and the optical drive amplitude is
    sqrt(2*gamma_c*P_L/(hbar*omega_laser)).  ``gamma_c`` is the optical
    damping from :class:`SystemParams` (the optical amplitude depends on
    the cavity linewidth, not on any drive-side quantity).

    ``sphere_radius`` is needed only when the Rabi rate has to come from
    ``drive_power`` (no ``rabi`` and no ``drive_field`` given); without
    it the returned ``drive_field`` is 0.
    """
    d = drives
    if d.rabi == 0 and d.drive_field <= 0 and d.sphere_radius <= 0:
        raise DomainError("sphere_radius must be > 0")
    drive_field = 0.0
    if d.sphere_radius > 0:
        drive_field = math.sqrt(2.0 * d.drive_power * mu_0 / (math.pi * c_light)) / d.sphere_radius
    field = d.drive_field if d.drive_field > 0 else drive_field
    rabi = (math.sqrt(5.0) / 4.0) * d.gyromagnetic_ratio * math.sqrt(d.spin_count) * field
    if d.laser_power > 0:
        if d.drive_freq_2 <= 0:
            raise DomainError("drive_freq_2 must be > 0 when laser_power > 0")
        laser_coupling = math.sqrt(2.0 * gamma_c * d.laser_power / (hbar * d.drive_freq_2))
    else:
        laser_coupling = 0.0
    return rabi, laser_coupling, drive_field
