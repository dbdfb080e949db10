"""Linearized model assembly: drift matrix, diffusion matrix, derived rates.

The five modes are ordered ``(b1, b2, m, c, a)``: the two mechanical
modes, then the magnon, the optical whispering-gallery mode and the
microwave cavity, with quadratures (X, Y) per mode.  Matrices are 10x10
and the X quadrature of mode ``i`` sits at row ``2*i``.  The quadrature
normalization puts the vacuum variance at 1/2.
"""

from __future__ import annotations

import dataclasses
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
    exactly 0 at zero temperature (or one so small that kB*T underflows)
    and underflows to 0 once the exponent exceeds ~700 (where the
    occupation is below 1e-300 anyway).  A NaN or infinite ``omega`` or
    ``temperature``, or an overflowing occupation, raises :class:`DomainError`.
    """
    if not 0.0 < omega < math.inf:
        raise DomainError(f"omega must be a finite number > 0, got {omega!r}")
    if not 0.0 <= temperature < math.inf:
        raise DomainError(f"temperature must be a finite number >= 0, got {temperature!r}")
    thermal_energy = k_B * temperature
    if thermal_energy == 0.0:
        return 0.0
    x = hbar * omega / thermal_energy
    if x > 700.0:
        return 0.0
    if not x or (occupancy := 1.0 / math.expm1(x)) == math.inf:
        raise DomainError(f"thermal occupancy at {temperature!r} K overflows for omega {omega!r}")
    return occupancy


def build_drift(params: SystemParams) -> np.ndarray:
    """Assemble the 10x10 drift matrix of the quadrature fluctuations.

    The magnon detuning entry is delta_m_tilde + barnett_shift; the
    optical entries use the feedback-modified damping ``gamma_c_fb`` and
    detuning shift ``fb_shift`` of :class:`SystemParams`.  All couplings
    enter as beam-splitter or two-mode-squeezing blocks between the (X, Y)
    pairs; entries not set below are zero.
    """
    p = params
    d_m = p.delta_m_tilde + p.barnett_shift
    gamma_c_fb = p.gamma_c_fb
    d_c = p.delta_c_tilde + p.fb_shift

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
    occupations = (
        thermal_occupancy(p.omega_b1, p.temperature),
        thermal_occupancy(p.omega_b2, p.temperature),
        thermal_occupancy(p.omega_m, p.temperature),
        thermal_occupancy(p.omega_c, p.temperature),
        thermal_occupancy(p.omega_a, p.temperature),
    )
    rates = (p.gamma_b1, p.gamma_b2, p.gamma_m, p.gamma_c * p.fb_noise_factor, p.gamma_a)
    diag = np.empty(2 * N_MODES)
    for i, (gamma, nbar) in enumerate(zip(rates, occupations)):
        diag[2 * i] = diag[2 * i + 1] = gamma * (2.0 * nbar + 1.0)
    return np.diag(diag)


def drive_conversions(drives: DriveParams, gamma_c: float) -> DriveParams:
    """``drives`` with its amplitudes ``rabi`` and ``laser_coupling`` completed.

    Each amplitude that is 0 is derived from the laboratory quantities when
    one is given; one given directly is kept.  The Rabi rate is
    (sqrt(5)/4)*gyro*sqrt(N)*H_d, with H_d a positive ``drive_field`` or
    else the field (1/R)*sqrt(2*P0*mu0/(pi*c)) of ``drive_power``: the one
    conversion that needs ``sphere_radius``.  The optical amplitude is
    sqrt(2*gamma_c*P_L/(hbar*omega_laser)), with ``gamma_c`` the optical
    damping of :class:`SystemParams`.
    """
    d = drives
    rabi, laser_coupling = d.rabi, d.laser_coupling
    if rabi == 0 and (d.drive_field > 0 or d.drive_power > 0):
        field = d.drive_field
        if field <= 0:
            if d.sphere_radius <= 0:
                raise DomainError("sphere_radius must be > 0 to convert drive_power")
            field = math.sqrt(2.0 * d.drive_power * mu_0 / (math.pi * c_light)) / d.sphere_radius
        rabi = (math.sqrt(5.0) / 4.0) * d.gyromagnetic_ratio * math.sqrt(d.spin_count) * field
    if laser_coupling == 0 and d.laser_power > 0:
        if d.drive_freq_2 <= 0:
            raise DomainError("drive_freq_2 must be > 0 when laser_power > 0")
        laser_coupling = math.sqrt(2.0 * gamma_c * d.laser_power / (hbar * d.drive_freq_2))
    return dataclasses.replace(d, rabi=rabi, laser_coupling=laser_coupling)
