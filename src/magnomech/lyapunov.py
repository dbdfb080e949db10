"""Stability gate and steady-state covariance via the Lyapunov equation.

The steady-state covariance matrix V of the linearized dynamics solves
``A V + V A^T + D = 0``.  Each distinct drift matrix is factored once:
its real Schur form (LAPACK ``dgees``) and the stability verdict read off
it form one gate result, memoised on the matrix contents, two at a time, so
the ``+`` and ``-`` rotation drifts of a contrast sweep both stay factored
along an axis that leaves the drift unchanged.  The one entry serves both
the stability gate and the primary solver, the dense Bartels-Stewart
algorithm (LAPACK ``dtrsyl`` for the solve and its refinement pass); an
independent Kronecker-vectorized solve and a direct time-integration
serve as cross-check oracles.  Every algebraic solve is refined once (for
the last digits of a near-degenerate measure; the first solve already meets
the bound), symmetrized and verified against a residual bound before being
returned.

Both LAPACK routines come from scipy's compiled wrappers, which
:data:`params.FLAPACK` loads without importing ``scipy.linalg``; only the two
oracles import ``scipy.linalg`` and ``scipy.integrate``, inside themselves.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, FloatGuard, SolverError, StabilityError
from .params import FLAPACK, real_matrix

#: Relative Frobenius-norm bound accepted for ``A V + V A^T + D``.
RESIDUAL_TOL = 1e-9

#: Integration horizon of :func:`integrate_lyapunov` in units of the slowest
#: decay time ``1/|max Re eig(A)|``, and its relative tolerance.
INTEGRATION_HORIZON = 50.0
INTEGRATION_RTOL = 1e-10

#: Scale factor for the marginal-stability tolerance: a drift matrix is
#: stable only if max Re(eig) < -1e-6 * max|A_ij|.  Relative to matrix
#: scale because the rates span many orders of magnitude.
STABILITY_EPS = 1e-6


@dataclass(frozen=True)
class StabilityResult:
    """Outcome of the stability gate: flag, spectral abscissa and the read-only real Schur
    factors ``drift = basis schur basis^T`` (outside its repr, equality and hash)."""

    stable: bool
    margin: float  # max real part of the drift spectrum (rad/s)
    schur: np.ndarray | None = field(default=None, repr=False, compare=False)
    basis: np.ndarray | None = field(default=None, repr=False, compare=False)


_DGEES, _DTRSYL = FLAPACK.dgees, FLAPACK.dtrsyl


@functools.lru_cache(maxsize=2)
def _schur_of(shape: tuple, data: bytes) -> StabilityResult:
    drift = np.frombuffer(data).reshape(shape)
    schur, _, _, _, basis, _, info = _DGEES(lambda *_: None, drift)  # unsorted
    if info != 0:
        raise SolverError(f"Schur decomposition failed (LAPACK dgees info {info})")
    schur.flags.writeable = False
    basis.flags.writeable = False
    margin = float(schur.diagonal().max())
    return StabilityResult(stable=margin < -STABILITY_EPS * float(np.abs(drift).max() or 1.0),
                           margin=margin, schur=schur, basis=basis)


def stability_check(drift: np.ndarray) -> StabilityResult:
    """Decide dynamical stability of a real square drift matrix.

    Stable means every eigenvalue has real part below the (scale-relative)
    marginal tolerance; the margin is returned either way so callers can
    report how far from the boundary a point sits.  The memoised result
    carries the Schur factors it was read off, so the gate and the solve of
    one drift share one factorization; an array mutated in place is factored
    afresh.  Every call, a memo hit too, applies the matrix rule (``real_matrix``):
    a :class:`DomainError`, or a :class:`SolverError` for a non-finite entry.
    """
    drift = real_matrix(drift, "drift must be a finite real square matrix")
    return _schur_of(drift.shape, drift.tobytes())


def _stable_operands(drift, diffusion, caller: str):
    """The gate result of ``drift`` and both matrices as float arrays, both checked by the
    matrix rule (``diffusion`` with the drift's shape), or a :class:`StabilityError` unless
    the drift is stable."""
    gate = stability_check(drift)
    n = len(gate.schur)  # an int: formatting the shape tuple costs a microsecond per call
    diffusion = real_matrix(diffusion, f"{caller} needs a finite real diffusion matrix of the "
                            f"drift's shape ({n}, {n})", (n,))
    if not gate.stable:
        raise StabilityError(f"{caller} called on unstable drift (margin {gate.margin:.3e})")
    return gate, np.asarray(drift, dtype=float), diffusion


def _refined(drift, diffusion, solve) -> np.ndarray:
    """Solve, refine once, symmetrize and verify ``A V + V A^T + D = 0``.

    ``solve(rhs)`` returns X with ``A X + X A^T = rhs``.  The second call
    corrects the first one's residual; explicit symmetrization keeps residual
    asymmetry out of determinant-based measures.  An overflow is a :class:`SolverError`.
    """
    with FloatGuard("Lyapunov refinement"):
        cov = solve(-diffusion)
        cov = cov + solve(-(drift @ cov + cov @ drift.T + diffusion))
        cov = (cov + cov.T) / 2.0
        residual = drift @ cov + cov @ drift.T + diffusion
        rel = float(np.linalg.norm(residual) / (np.linalg.norm(diffusion) or 1.0))
    if not rel <= RESIDUAL_TOL:  # also rejects a NaN residual
        raise SolverError(f"Lyapunov residual {rel:.3e} above tolerance {RESIDUAL_TOL:.0e}",
                          residual=rel)
    return cov


def solve_lyapunov(drift: np.ndarray, diffusion: np.ndarray) -> np.ndarray:
    """Steady-state covariance by the Bartels-Stewart algorithm.

    The guard and both triangular Sylvester solves read the one real Schur
    form ``A = U T U^T`` that :func:`stability_check` returns with its
    verdict, so a gate of the same matrix just before has already paid for
    both.  The refinement pass (one more ``dtrsyl``, four basis transforms and
    one residual) buys the last digits, not the residual bound, which the first
    solve already meets: at the near-degenerate (b1, m) point pinned in the
    tests the pair's log-negativity is 1.8e-13 off its 50-digit value without
    it and within 1e-16 with it, and on the shipped presets it moves no cell
    by more than 1e-11.
    """
    gate, drift, diffusion = _stable_operands(drift, diffusion, "solve_lyapunov")
    schur, basis = gate.schur, gate.basis

    def solve(rhs):
        # T Y + Y T^T = U^T rhs U, then X = U Y U^T
        y, scale, _ = _DTRSYL(schur, schur, basis.T.dot(rhs.dot(basis)), tranb="T")
        y *= scale
        return basis.dot(y).dot(basis.T)

    return _refined(drift, diffusion, solve)


def solve_lyapunov_oracle(drift: np.ndarray, diffusion: np.ndarray) -> np.ndarray:
    """Independent covariance solve via the Kronecker-vectorized system.

    Solves ``(I (x) A + A (x) I) vec(V) = -vec(D)`` by dense LU
    factorization.  Kept deliberately separate from the Schur path so the
    two can verify each other; intended for small systems (<= 12 modes).
    """
    from scipy.linalg import lu_factor, lu_solve  # slow to import; only this oracle needs it

    _, drift, diffusion = _stable_operands(drift, diffusion, "oracle")
    n = drift.shape[0]
    if n > 24:
        raise DomainError(f"oracle path is restricted to at most 12 modes, got {n // 2}")
    eye = np.eye(n)
    # never singular: the gate's eigenvalues lam_i of A all have Re < 0, and the
    # Kronecker sum's are lam_i + lam_j
    lu_piv = lu_factor(np.kron(eye, drift) + np.kron(drift, eye))
    return _refined(drift, diffusion,
                    lambda rhs: lu_solve(lu_piv, rhs.reshape(-1)).reshape(n, n))


def integrate_lyapunov(drift: np.ndarray, diffusion: np.ndarray) -> np.ndarray:
    """Covariance by direct integration of ``dV/dt = A V + V A^T + D``.

    Integrates from V = 0 to ``t = INTEGRATION_HORIZON / |max Re eig(A)|``, by
    which time the transient has decayed to numerical noise.  Slow, and
    used only as an independent cross-check of the algebraic solvers.  An
    overflow is a :class:`SolverError`.
    """
    from scipy.integrate import solve_ivp  # slow to import; only this oracle needs it

    gate, drift, diffusion = _stable_operands(drift, diffusion, "integration oracle")
    n = drift.shape[0]

    def rhs(_t, y):
        v = y.reshape(n, n)
        return (drift @ v + v @ drift.T + diffusion).reshape(-1)

    with FloatGuard("time integration"):
        scale = float(np.abs(diffusion).max() / (2.0 * abs(gate.margin)) or 1.0)
        sol = solve_ivp(rhs, (0.0, INTEGRATION_HORIZON / abs(gate.margin)), np.zeros(n * n),
                        method="RK45", rtol=INTEGRATION_RTOL, atol=INTEGRATION_RTOL * scale)
    if not sol.success:
        raise SolverError(f"time integration failed: {sol.message}")
    cov = sol.y[:, -1].reshape(n, n)
    return (cov + cov.T) / 2.0
