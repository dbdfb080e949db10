"""Linearized model assembly: drift matrix, diffusion matrix, derived rates.

The five modes are ordered ``(b1, b2, m, c, a)``: the two mechanical
modes, then the magnon, the optical whispering-gallery mode and the
microwave cavity, with quadratures (X, Y) per mode.  Matrices are 10x10
and the X quadrature of mode ``i`` sits at row ``2*i``.  The quadrature
normalization puts the vacuum variance at 1/2.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .params import HBAR, K_B, SystemParams

MODE_ORDER = ("b1", "b2", "m", "c", "a")
MODE_INDEX = {name: i for i, name in enumerate(MODE_ORDER)}
N_MODES = len(MODE_ORDER)

#: Symplectic form of the five-mode phase space in (X, Y)-per-mode
#: ordering; its leading 2k x 2k block is the form of the first k modes.
OMEGA = np.kron(np.eye(N_MODES), np.array([[0.0, 1.0], [-1.0, 0.0]]))

_SQRT2 = math.sqrt(2.0)


def _bose(omega: float, temperature: float) -> float:
    """The Bose factor of :func:`build_diffusion`, of fields that :class:`SystemParams` checked."""
    thermal_energy = K_B * temperature
    if thermal_energy == 0.0:
        return 0.0
    x = HBAR * omega / thermal_energy
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
    d_c = p.delta_c_tilde + p.fb_shift
    g_m = _SQRT2 * p.G_m
    g_c = _SQRT2 * p.G_c

    a = np.zeros((2 * N_MODES, 2 * N_MODES))
    # mechanical mode b1, and the b1-b2 beam splitter
    a[0, 0] = a[1, 1] = -p.gamma_b1
    a[0, 1] = p.omega_b1
    a[1, 0] = -p.omega_b1
    a[0, 3] = a[2, 1] = p.D_b1b2
    a[1, 2] = a[3, 0] = -p.D_b1b2
    a[1, 5] = -g_m
    # mechanical mode b2
    a[2, 2] = a[3, 3] = -p.gamma_b2
    a[2, 3] = p.omega_b2
    a[3, 2] = -p.omega_b2
    a[3, 7] = -g_c
    # magnon, and the m-a beam splitter
    a[4, 0] = g_m
    a[4, 4] = a[5, 5] = -p.gamma_m
    a[4, 5] = d_m
    a[5, 4] = -d_m
    a[4, 9] = a[8, 5] = p.D_ma
    a[5, 8] = a[9, 4] = -p.D_ma
    # optical mode
    a[6, 2] = g_c
    a[6, 6] = a[7, 7] = -p.gamma_c_fb
    a[6, 7] = d_c
    a[7, 6] = -d_c
    # microwave cavity
    a[8, 8] = a[9, 9] = -p.gamma_a
    a[8, 9] = p.delta_a
    a[9, 8] = -p.delta_a
    return a


def build_diffusion(params: SystemParams) -> np.ndarray:
    """Assemble the diagonal 10x10 diffusion matrix.

    Each mode contributes gamma*(2*nbar + 1) on both of its quadratures,
    with nbar = 1/(exp(hbar*omega/kB*T) - 1) at the mode's own resonance
    frequency, read unchecked from the fields :class:`SystemParams` checked;
    the optical entries additionally carry the feedback noise factor.  nbar
    is exactly 0 when kB*T is (or underflows to) 0 and once the exponent
    exceeds 700; an nbar that overflows (at 1e308 K) is a :class:`DomainError`.
    """
    p = params
    rates = (
        (p.gamma_b1, _bose(p.omega_b1, p.temperature)),
        (p.gamma_b2, _bose(p.omega_b2, p.temperature)),
        (p.gamma_m, _bose(p.omega_m, p.temperature)),
        (p.gamma_c * p.fb_noise_factor, _bose(p.omega_c, p.temperature)),
        (p.gamma_a, _bose(p.omega_a, p.temperature)),
    )
    diag = np.empty(2 * N_MODES)
    for i, (gamma, nbar) in enumerate(rates):
        diag[2 * i] = diag[2 * i + 1] = gamma * (2.0 * nbar + 1.0)
    return np.diag(diag)

