"""Classical steady-state amplitudes and the effective couplings they set.

The strong magnon and optical drives (amplitudes given, or derived from
the drive block's laboratory quantities) produce large coherent
amplitudes; these fix the effective magno- and optomechanical couplings
that enter the linearized drift matrix, and the mechanical displacements
shift the drive detunings.  The closed-form amplitude expressions and the
displacement shifts couple to each other, so the full solution is a small
fixed-point iteration over the two real displacements.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from scipy.constants import hbar, mu_0, c as c_light

from .errors import ConvergenceError, DomainError, FloatGuard, SingularPointError
from .params import DriveParams, SystemParams

_SQRT2 = math.sqrt(2.0)

#: Relative tolerance on amplitude changes declaring the fixed point converged.
CONVERGENCE_TOL = 1e-10
#: Hard cap on fixed-point iterations.
MAX_ITERATIONS = 1000
#: Under-relaxation factor applied to displacement updates.
DAMPING = 0.5
#: Gap, in steps, between the iterations whose displacement pair the cycle
#: detection keeps: a cycle of period up to this is caught wherever it starts.
SAVE_GAP = 64


@dataclass(frozen=True)
class SteadyAmplitudes:
    """Mean-field amplitudes with the derived couplings and detunings.

    ``g_m_eff`` and ``g_c_eff`` are the complex effective couplings
    -i*sqrt(2)*D_mb1*<m> and +i*sqrt(2)*D_cb2*<c>; ``delta_m_eff`` and
    ``delta_c_eff`` are the fully shifted detunings (rotation shift and
    feedback shift included) at which the amplitudes were evaluated.
    """

    m_avg: complex
    c_avg: complex
    b1_avg: complex
    b2_avg: complex
    g_m_eff: complex
    g_c_eff: complex
    delta_m_eff: float
    delta_c_eff: float
    iterations: int = 0


def _drive_amplitudes(params: SystemParams, drives: DriveParams) -> tuple:
    """``(rabi, laser_coupling)`` of ``drives``: one given is kept, one that is 0 is derived
    when its laboratory quantity is positive.  The Rabi rate is (sqrt(5)/4)*gyro*sqrt(N)*H_d,
    H_d a positive ``drive_field``, else the field (1/R)*sqrt(2*P0*mu0/(pi*c)) of ``drive_power``;
    the optical one is sqrt(2*gamma_c*P_L/(hbar*omega_laser)).  A ``sphere_radius`` or
    ``drive_freq_2`` that a conversion needs and that is not > 0 is a :class:`DomainError`."""
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
        laser_coupling = math.sqrt(2.0 * params.gamma_c * d.laser_power / (hbar * d.drive_freq_2))
    return rabi, laser_coupling


def _amplitude_map(params: SystemParams, drives: DriveParams):
    """Closed-form amplitudes as a function of the two effective detunings.

    Everything that does not depend on the detunings is computed once
    here.  The returned ``step(delta_m_eff, delta_c_eff)`` gives
    ``(m, c, b1, b2, |m|, |c|)``: the four amplitudes plus the two
    magnitudes that the mechanical drive terms already needed.  Only
    exact hoists are made, so the results match the formula evaluated
    in full bit for bit.  The microwave and magnon denominators have the
    real parts ``gamma_a`` and at least ``gamma_m``, both positive, so of
    the four only the optical and the mechanical one can vanish.  A
    mechanical denominator that overflows raises ``OverflowError``, which
    the caller's guard turns into a :class:`SolverError`.
    """
    p, d = params, drives
    rabi, laser_coupling = _drive_amplitudes(p, d)
    microwave_load = p.D_ma**2 / (1j * p.delta_a + p.gamma_a)
    optical_drive = p.psi * laser_coupling
    z1 = 1j * p.gamma_b1 - p.omega_b1
    z2 = 1j * p.gamma_b2 - p.omega_b2
    den_b = p.D_b1b2**2 - z1 * z2
    if den_b == 0:
        raise SingularPointError("mechanical amplitude denominator vanishes")
    if not cmath.isfinite(den_b):  # Python's complex product overflows without raising
        raise OverflowError("mechanical amplitude denominator overflows")
    gamma_m, gamma_c_fb = p.gamma_m, p.gamma_c_fb
    d_b1b2, d_mb1, d_cb2 = p.D_b1b2, d.bare_D_mb1, d.bare_D_cb2

    def step(delta_m_eff: float, delta_c_eff: float):
        den_m = (1j * delta_m_eff + gamma_m) + microwave_load
        den_c = 1j * delta_c_eff + gamma_c_fb
        if den_c == 0:
            raise SingularPointError("optical amplitude denominator vanishes")
        m_avg = rabi / den_m
        c_avg = optical_drive / den_c
        c_abs = abs(c_avg)
        c2 = c_abs**2
        m_abs = abs(m_avg)
        m2 = m_abs**2
        b1_avg = (c2 * d_cb2 * d_b1b2 - m2 * d_mb1 * z2) / den_b
        b2_avg = (c2 * d_cb2 * z1 - m2 * d_mb1 * d_b1b2) / den_b
        return m_avg, c_avg, b1_avg, b2_avg, m_abs, c_abs

    return step


def solve_self_consistent(
    params: SystemParams, drives: DriveParams
) -> SteadyAmplitudes:
    """Solve the amplitude equations with displacement back-action.

    ``drives`` may be a raw drive block: :func:`_drive_amplitudes` completes
    its amplitudes first.  The mechanical displacements Re<b1>, Re<b2> shift the magnon and
    optical detunings, which feed back into the amplitudes.  A damped
    fixed-point iteration on the two displacements runs until the
    relative changes of all four amplitudes (``m``, ``c``, ``b1``,
    ``b2``) are below ``CONVERGENCE_TOL``; a NaN change never is.  The
    returned record carries the converged detunings and the number of
    refinement evaluations in ``iterations``.

    Otherwise it raises :class:`ConvergenceError` with the largest
    relative change of the last step, or NaN if any change is NaN, as
    ``residual``: after ``MAX_ITERATIONS`` steps, or one step after the
    displacement pair repeats an earlier one exactly.  Each convergence
    test reads two consecutive pairs only, so that one step completes
    the tests of a full period of the now periodic orbit, and no later
    step can converge.  The pair is kept for comparison after step 0
    and then every ``SAVE_GAP`` steps, so a cycle of period up to
    ``SAVE_GAP`` is caught however late it is entered.  An
    overflow or a division by zero (at a 1e200 Hz drive, say) is a :class:`SolverError`.
    """
    with FloatGuard("mean-field solve"):
        delta_m0 = params.delta_m_tilde + params.barnett_shift
        delta_c0 = params.delta_c_tilde + params.fb_shift
        step = _amplitude_map(params, drives)
        shift_m, shift_c = 2.0 * drives.bare_D_mb1, 2.0 * drives.bare_D_cb2
        eps = 1e-30
        m, c, b1, b2, m_abs, c_abs = step(delta_m0, delta_c0)
        x1 = x2 = 0.0
        x1 += DAMPING * (b1.real - x1)
        x2 += DAMPING * (b2.real - x2)
        # Cycle detection on (x1, x2), which alone fixes every later step:
        # the pair held after iteration 0, then every SAVE_GAP iterations, is
        # kept.  x never becomes -0.0 (a sum is -0.0 only if both terms
        # are), so == here means bit-identical.
        saved1, saved2, next_save, repeats = x1, x2, SAVE_GAP, False
        for iteration in range(1, MAX_ITERATIONS + 1):
            delta_m = delta_m0 + shift_m * x1
            delta_c = delta_c0 - shift_c * x2
            m1, c1, b11, b21, _, _ = new = step(delta_m, delta_c)
            # m_abs, c_abs are the previous step's |m|, |c|: no second abs() call
            if (abs(m1 - m) / (m_abs + eps) < CONVERGENCE_TOL
                    and abs(c1 - c) / (c_abs + eps) < CONVERGENCE_TOL
                    and abs(b11 - b1) / (abs(b1) + eps) < CONVERGENCE_TOL
                    and abs(b21 - b2) / (abs(b2) + eps) < CONVERGENCE_TOL):
                return SteadyAmplitudes(m1, c1, b11, b21, -1j * _SQRT2 * drives.bare_D_mb1 * m1,
                                        1j * _SQRT2 * drives.bare_D_cb2 * c1,
                                        delta_m, delta_c, iteration)
            if repeats or iteration == MAX_ITERATIONS:
                break
            m, c, b1, b2, m_abs, c_abs = new
            x1 += DAMPING * (b1.real - x1)
            x2 += DAMPING * (b2.real - x2)
            if x1 == saved1 and x2 == saved2:  # periodic from here on
                repeats = True
            elif iteration == next_save:
                saved1, saved2 = x1, x2
                next_save += SAVE_GAP
        changes = (abs(m1 - m) / (m_abs + eps), abs(c1 - c) / (c_abs + eps),
                   abs(b11 - b1) / (abs(b1) + eps), abs(b21 - b2) / (abs(b2) + eps))
        change = math.nan if any(map(math.isnan, changes)) else max(changes)
    failure = (f"repeats its displacement orbit by step {iteration}" if repeats
               else f"did not converge in {MAX_ITERATIONS} steps")
    raise ConvergenceError(f"mean-field iteration {failure} (last relative change {change:.3e})",
                           residual=change)
