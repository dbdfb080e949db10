"""Classical steady-state amplitudes and the effective couplings they set.

The strong magnon and optical drives (each amplitude given, or derived
from its laboratory power) produce large coherent amplitudes; these fix
the effective magno- and optomechanical couplings that enter the
linearized drift matrix, and the mechanical displacements shift the
drive detunings.  The closed-form amplitude expressions and the
displacement shifts couple to each other, so the full solution is a small
fixed-point iteration over the two real displacements.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import ConvergenceError, FloatGuard, SingularPointError
from .params import HBAR, MU_0, SPEED_OF_LIGHT, DriveParams, SystemParams

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
    ``iterations`` is the step of :func:`solve_self_consistent`'s loop that
    converged, counted from step 0 at the unshifted detunings: 1 when the
    displacements do not move the amplitudes.
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
    """``(rabi, laser_coupling)`` of ``drives``, each as given or, when its power is nonzero (and
    so, by :class:`DriveParams`, every field its conversion reads), derived: the Rabi rate
    (sqrt(5)/4)*gyro*sqrt(N)*B, B = (1/R)*sqrt(2*P0*mu0/(pi*c)) the field of ``drive_power``,
    and the optical amplitude sqrt(2*gamma_c*P_L/(hbar*omega_laser))."""
    d = drives
    rabi, laser_coupling = d.rabi, d.laser_coupling
    if d.drive_power:
        field = math.sqrt(2.0 * d.drive_power * MU_0 / (math.pi * SPEED_OF_LIGHT)) / d.sphere_radius
        rabi = (math.sqrt(5.0) / 4.0) * d.gyromagnetic_ratio * math.sqrt(d.spin_count) * field
    if d.laser_power:
        laser_coupling = math.sqrt(2.0 * params.gamma_c * d.laser_power / (HBAR * d.drive_freq_2))
    return rabi, laser_coupling


def solve_self_consistent(
    params: SystemParams, drives: DriveParams
) -> SteadyAmplitudes:
    """Solve the amplitude equations with displacement back-action.

    Each amplitude of ``drives`` is given or derived from its power first
    (:func:`_drive_amplitudes`).  The mechanical displacements Re<b1>, Re<b2>
    shift the magnon and optical detunings, which feed back into the amplitudes.  One damped
    fixed-point loop on the two displacements evaluates the closed-form
    amplitudes at the shifted detunings, step 0 at the unshifted ones, and
    runs until the relative changes of all four amplitudes (``m``, ``c``,
    ``b1``, ``b2``) from the previous step are below ``CONVERGENCE_TOL``.
    The returned record carries the converged detunings and the number of
    refinement steps in ``iterations``.

    Otherwise it raises :class:`ConvergenceError` with the largest
    relative change of the last step as ``residual``: after
    ``MAX_ITERATIONS`` steps, or one step after the displacement pair
    repeats an earlier one exactly.  Each convergence test reads two
    consecutive pairs only, so that one step completes the tests of a
    full period of the now periodic orbit, and no later step can
    converge.  The pair is kept for comparison after step 0 and then
    every ``SAVE_GAP`` steps, so a cycle of period up to ``SAVE_GAP`` is
    caught however late it is entered.

    A vanishing optical or mechanical denominator is a
    :class:`SingularPointError`.  An overflow or a division by zero (at a
    1e200 Hz drive, say) is a :class:`SolverError`; since Python's float
    and complex products overflow without raising, a kept displacement
    pair or a last relative change that is not finite raises
    ``OverflowError`` for the guard to turn into one.
    """
    p, d = params, drives
    with FloatGuard("mean-field solve"):
        rabi, laser_coupling = _drive_amplitudes(p, d)
        # Per-solve invariants, hoisted only where the bits stay those of the
        # formula written out in full: gamma_m + L is added in one piece, which
        # loses no signed zero because its real part is positive (gamma_m > 0,
        # Re L >= 0); a float over a complex is promoted to complex(x, 0.0) on
        # every division, so the two drives are promoted once here.
        magnon_loss = p.gamma_m + p.D_ma**2 / (1j * p.delta_a + p.gamma_a)
        magnon_drive = complex(rabi)
        optical_drive = complex(p.psi * laser_coupling)
        gamma_c_fb = p.gamma_c_fb
        z1 = 1j * p.gamma_b1 - p.omega_b1
        z2 = 1j * p.gamma_b2 - p.omega_b2
        d_b1b2, d_mb1, d_cb2 = p.D_b1b2, d.bare_D_mb1, d.bare_D_cb2
        den_b = d_b1b2**2 - z1 * z2
        if den_b == 0:
            raise SingularPointError("mechanical amplitude denominator vanishes")
        if not cmath.isfinite(den_b):  # Python's complex product overflows without raising
            raise OverflowError("mechanical amplitude denominator overflows")
        delta_m0 = delta_m = p.delta_m_tilde + p.barnett_shift
        delta_c0 = delta_c = p.delta_c_tilde + p.fb_shift
        shift_m, shift_c = 2.0 * d_mb1, 2.0 * d_cb2
        eps, tol, damping = 1e-30, CONVERGENCE_TOL, DAMPING
        x1 = x2 = 0.0
        # Cycle detection on (x1, x2), which alone fixes every later step:
        # the pair held after iteration 0, then every SAVE_GAP iterations, is
        # kept.  x never becomes -0.0 (a sum is -0.0 only if both terms
        # are), so == here means bit-identical; NaN matches no pair.
        saved1 = saved2 = math.nan
        next_save, repeats = 0, False
        for iteration in range(MAX_ITERATIONS + 1):
            if delta_c == 0 and gamma_c_fb == 0:  # i*delta_c + gamma_c_fb vanishes
                raise SingularPointError("optical amplitude denominator vanishes")
            m1 = magnon_drive / (1j * delta_m + magnon_loss)
            c1 = optical_drive / (1j * delta_c + gamma_c_fb)
            # D_cb2*|c|^2 and D_mb1*|m|^2 drive both mechanical amplitudes
            c_abs1 = abs(c1)
            c_force = c_abs1**2 * d_cb2
            m_abs1 = abs(m1)
            m_force = m_abs1**2 * d_mb1
            b11 = (c_force * d_b1b2 - m_force * z2) / den_b
            b21 = (c_force * z1 - m_force * d_b1b2) / den_b
            # step 0 has no previous step; m_abs, c_abs are the previous |m|, |c|
            if (iteration and abs(m1 - m) / (m_abs + eps) < tol
                    and abs(c1 - c) / (c_abs + eps) < tol
                    and abs(b11 - b1) / (abs(b1) + eps) < tol
                    and abs(b21 - b2) / (abs(b2) + eps) < tol):
                return SteadyAmplitudes(m1, c1, b11, b21, -1j * _SQRT2 * d_mb1 * m1,
                                        1j * _SQRT2 * d_cb2 * c1, delta_m, delta_c, iteration)
            if repeats or iteration == MAX_ITERATIONS:
                break
            m, c, b1, b2, m_abs, c_abs = m1, c1, b11, b21, m_abs1, c_abs1
            x1 += damping * (b1.real - x1)
            x2 += damping * (b2.real - x2)
            if x1 == saved1 and x2 == saved2:  # periodic from here on
                repeats = True
            elif iteration == next_save:
                if not (math.isfinite(x1) and math.isfinite(x2)):
                    raise OverflowError("mean-field displacements left double range")
                saved1, saved2 = x1, x2
                next_save += SAVE_GAP
            delta_m = delta_m0 + shift_m * x1
            delta_c = delta_c0 - shift_c * x2
        changes = (abs(m1 - m) / (m_abs + eps), abs(c1 - c) / (c_abs + eps),
                   abs(b11 - b1) / (abs(b1) + eps), abs(b21 - b2) / (abs(b2) + eps))
        if not all(map(math.isfinite, changes)):
            raise OverflowError("mean-field relative change left double range")
        change = max(changes)
    failure = (f"repeats its displacement orbit by step {iteration}" if repeats
               else f"did not converge in {MAX_ITERATIONS} steps")
    raise ConvergenceError(f"mean-field iteration {failure} (last relative change {change:.3e})",
                           residual=change)
