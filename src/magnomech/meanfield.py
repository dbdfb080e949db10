"""Classical steady-state amplitudes and the effective couplings they set.

The strong magnon and optical drives produce large coherent amplitudes;
these fix the effective magno- and optomechanical couplings that enter
the linearized drift matrix, and the mechanical displacements shift the
drive detunings.  The closed-form amplitude expressions and the
displacement shifts couple to each other, so the full solution is a
small fixed-point iteration over the two real displacements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, SingularPointError
from .params import DriveParams, SystemParams

_SQRT2 = math.sqrt(2.0)

#: Relative tolerance on amplitude changes declaring the fixed point converged.
CONVERGENCE_TOL = 1e-10
#: Hard cap on fixed-point iterations.
MAX_ITERATIONS = 1000
#: Under-relaxation factor applied to displacement updates.
DAMPING = 0.5
#: Largest gap, in steps, between the iterations whose displacement pair the
#: cycle detection keeps.
MAX_SAVE_GAP = 64


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


def _amplitude_map(params: SystemParams, drives: DriveParams):
    """Closed-form amplitudes as a function of the two effective detunings.

    Everything that does not depend on the detunings is computed once
    here.  The returned ``step(delta_m_eff, delta_c_eff)`` gives
    ``(m, c, b1, b2, |m|, |c|)``: the four amplitudes plus the two
    magnitudes that the mechanical drive terms already needed.  Only
    exact hoists are made, so the results match the formula evaluated
    in full bit for bit.
    """
    p, d = params, drives
    den_a = 1j * p.delta_a + p.gamma_a
    if den_a == 0:
        raise SingularPointError("microwave response (i*delta_a + gamma_a) vanishes")
    microwave_load = p.D_ma**2 / den_a
    optical_drive = p.psi * d.laser_coupling
    z1 = 1j * p.gamma_b1 - p.omega_b1
    z2 = 1j * p.gamma_b2 - p.omega_b2
    den_b = p.D_b1b2**2 - z1 * z2
    rabi, gamma_m, gamma_c_fb = d.rabi, p.gamma_m, p.gamma_c_fb
    d_b1b2, d_mb1, d_cb2 = p.D_b1b2, d.bare_D_mb1, d.bare_D_cb2

    def step(delta_m_eff: float, delta_c_eff: float):
        den_m = (1j * delta_m_eff + gamma_m) + microwave_load
        if den_m == 0:
            raise SingularPointError("magnon amplitude denominator vanishes")
        den_c = 1j * delta_c_eff + gamma_c_fb
        if den_c == 0:
            raise SingularPointError("optical amplitude denominator vanishes")
        m_avg = rabi / den_m
        c_avg = optical_drive / den_c
        if den_b == 0:
            raise SingularPointError("mechanical amplitude denominator vanishes")
        c_abs = abs(c_avg)
        c2 = c_abs**2
        m_abs = abs(m_avg)
        m2 = m_abs**2
        b1_avg = (c2 * d_cb2 * d_b1b2 - m2 * d_mb1 * z2) / den_b
        b2_avg = (c2 * d_cb2 * z1 - m2 * d_mb1 * d_b1b2) / den_b
        return m_avg, c_avg, b1_avg, b2_avg, m_abs, c_abs

    return step


def _record(drives, amplitudes, delta_m_eff, delta_c_eff, iterations=0):
    m_avg, c_avg, b1_avg, b2_avg, _, _ = amplitudes
    g_m_eff = -1j * _SQRT2 * drives.bare_D_mb1 * m_avg
    g_c_eff = 1j * _SQRT2 * drives.bare_D_cb2 * c_avg
    return SteadyAmplitudes(m_avg, c_avg, b1_avg, b2_avg, g_m_eff, g_c_eff,
                            delta_m_eff, delta_c_eff, iterations)


def amplitudes_once(
    params: SystemParams,
    drives: DriveParams,
    detunings: tuple[float, float],
) -> SteadyAmplitudes:
    """Evaluate the closed-form steady-state amplitudes once.

    ``detunings`` is the pair (delta_m_eff, delta_c_eff) of effective
    magnon and optical detunings at which to evaluate; they are stored
    unchanged on the returned record.
    """
    return _record(drives, _amplitude_map(params, drives)(*detunings), *detunings)


def solve_self_consistent(
    params: SystemParams, drives: DriveParams
) -> SteadyAmplitudes:
    """Solve the amplitude equations with displacement back-action.

    The mechanical displacements Re<b1>, Re<b2> shift the magnon and
    optical detunings, which feed back into the amplitudes.  A damped
    fixed-point iteration on the two displacements runs until the
    largest relative amplitude change drops below ``CONVERGENCE_TOL``;
    the returned record carries the converged detunings and the number
    of refinement evaluations in ``iterations``.

    The convergence test reads the four relative changes (``m``, ``c``,
    ``b1``, ``b2``) in turn and stops at the first one that fails, with
    ``max()``'s reading of a NaN; the largest change itself is computed
    only on the step that ends the iteration unconverged.

    After ``MAX_ITERATIONS`` steps without convergence it raises
    :class:`ConvergenceError` with the last relative change as
    ``residual``.  An orbit whose displacement pair repeats an earlier
    one exactly is periodic, so none of its later steps can converge:
    the iteration then stops once it has tested one more full period,
    on a step whose change equals the one at ``MAX_ITERATIONS``, and
    raises the same error with the same residual.  The pair is kept for
    comparison after steps 0, 1, 2, 4, ... until the gap reaches
    ``MAX_SAVE_GAP``, then every ``MAX_SAVE_GAP`` steps, so a cycle
    entered late is caught too.
    """
    delta_m0 = params.delta_m_tilde + params.barnett_shift
    delta_c0 = params.delta_c_tilde + params.fb_shift
    step = _amplitude_map(params, drives)
    shift_m, shift_c = 2.0 * drives.bare_D_mb1, 2.0 * drives.bare_D_cb2
    eps = 1e-30
    m, c, b1, b2, m_abs, c_abs = step(delta_m0, delta_c0)
    x1 = x2 = 0.0
    x1 += DAMPING * (b1.real - x1)
    x2 += DAMPING * (b2.real - x2)
    # Brent's cycle detection on (x1, x2), which alone fixes every later
    # step: the pair held after iteration ``saved_at`` (0, 1, 2, 4, ..., then
    # every MAX_SAVE_GAP steps) is kept.  x never becomes -0.0 (a sum is
    # -0.0 only if both terms are), so == here means bit-identical.
    saved1, saved2, saved_at, next_save, stop = x1, x2, 0, 1, MAX_ITERATIONS
    for iteration in range(1, MAX_ITERATIONS + 1):
        delta_m = delta_m0 + shift_m * x1
        delta_c = delta_c0 - shift_c * x2
        m1, c1, b11, b21, _, _ = new = step(delta_m, delta_c)
        # the relative changes in the order max() takes them, stopping at the
        # first one that fails: a NaN first change fails the test, a NaN later
        # one is passed over, just as max() passes it over.  m_abs, c_abs are
        # the previous step's |m|, |c|: no second abs() call
        if abs(m1 - m) / (m_abs + eps) < CONVERGENCE_TOL and not (
                abs(c1 - c) / (c_abs + eps) >= CONVERGENCE_TOL
                or abs(b11 - b1) / (abs(b1) + eps) >= CONVERGENCE_TOL
                or abs(b21 - b2) / (abs(b2) + eps) >= CONVERGENCE_TOL):
            return _record(drives, new, delta_m, delta_c, iteration)
        if iteration == stop:
            change = max(abs(m1 - m) / (m_abs + eps), abs(c1 - c) / (c_abs + eps),
                         abs(b11 - b1) / (abs(b1) + eps), abs(b21 - b2) / (abs(b2) + eps))
            break
        m, c, b1, b2, m_abs, c_abs = new
        x1 += DAMPING * (b1.real - x1)
        x2 += DAMPING * (b2.real - x2)
        if x1 == saved1 and x2 == saved2:
            # the orbit repeats with this period from here on, and so does
            # every later change: test one more full period, then stop on
            # the step whose change equals the one at MAX_ITERATIONS
            period = iteration - saved_at
            stop = min(stop, iteration + period + (MAX_ITERATIONS - iteration) % period)
        elif iteration == next_save:
            saved1, saved2, saved_at = x1, x2, iteration
            next_save = iteration + min(iteration, MAX_SAVE_GAP)
    raise ConvergenceError(
        f"mean-field iteration did not converge in {MAX_ITERATIONS} steps "
        f"(last relative change {change:.3e})",
        residual=change,
    )
