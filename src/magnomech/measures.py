"""Gaussian correlation measures evaluated on steady-state covariances.

All operations take covariance matrices in the (X, Y)-per-mode ordering
with vacuum variance 1/2.  Bipartite entanglement is the logarithmic
negativity from the partially transposed two-mode covariance, steering
is the Renyi-2 measure, and tripartite entanglement the minimum residual
contangle (a squared one-versus-rest log-negativity less the squared pair
log-negativities).  One batched kernel, whose one public entry is
:func:`evaluate_measures`, serves every family: a covariance is factored once,
``V = L L^T`` (Cholesky), and the singular values of ``L^T J L`` are its
symplectic eigenvalues (Williamson's theorem), ``J`` the symplectic form,
or that form with one mode's block negated for the partial transpose over
that mode, so one factor serves every partial transpose: in closed form
for two modes, by SVD for more.  :func:`evaluate_measures` checks the
state once, factors it by LAPACK ``dpotrf`` and ``dgesdd``, and factors
its ten mode pairs and four default triples as one stack each; steering
reads the state's single-mode determinants and the pairs' ``det L``.
Where no pair of the default triples is entangled, one complex Cholesky
of the triples' twelve bona fide matrices ``V + (i/2) F_i Omega F_i``
(Simon's PPT condition) is tried first: if it succeeds, every
one-versus-rest term is proved 0 and the triples' factor and SVD are
skipped.  The SVD serves every stack the proof fails, and is the only
route to a nonzero one-versus-rest term.

Both LAPACK routines come from scipy's compiled wrappers, which
:data:`params.FLAPACK` loads without importing ``scipy.linalg``; only the
oracles of ``lyapunov`` import ``scipy.linalg`` and ``scipy.integrate``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, FloatGuard, PhysicalityError, SolverError
from .model import MODE_INDEX, MODE_ORDER, OMEGA
from .params import FLAPACK, SystemParams, finite_number, real_matrix

#: The measure families :func:`evaluate_measures` can evaluate.
MEASURE_FAMILIES = ("entanglement", "steering", "contangle", "occupation")

#: Rounding noise below this magnitude is reported as an exact zero.
ZERO_CLIP = 1e-10

#: A state is physical when its smallest symplectic eigenvalue is at least
#: 1/2 - PHYSICAL_TOL.
PHYSICAL_TOL = 1e-8

#: The six mode pairs with no direct coupling in the model, in canonical
#: mode order; these are the pairs whose correlations the device is
#: designed to create.
INDIRECT_PAIRS = (("b1", "c"), ("b1", "a"), ("b2", "m"), ("b2", "a"), ("m", "c"), ("c", "a"))

ALL_PAIRS = tuple(itertools.combinations(MODE_ORDER, 2))
_MECHANICAL = ("b1", "b2")  # the modes of the phonon occupations

#: Mode triples reported by default, each in :data:`MODE_ORDER` order as the ``R_*`` names
#: and ``contangle`` need: the optical mode with the microwave or magnon mode plus one mechanical mode.
DEFAULT_TRIPLES = (("b1", "m", "c"), ("b2", "c", "a"), ("b2", "m", "c"), ("b1", "c", "a"))


def require_families(measures) -> None:
    """A :class:`ConfigError` unless ``measures`` is a tuple or list of :data:`MEASURE_FAMILIES`."""
    if not isinstance(measures, (tuple, list)):
        raise ConfigError(f"measures must be a tuple of family names, got {measures!r}")
    for name in measures:
        if name not in MEASURE_FAMILIES:
            raise ConfigError(f"unknown measure family {name!r} in measures")


def _canonical(modes) -> tuple:
    return tuple(sorted(modes, key=MODE_INDEX.__getitem__))


def _submatrices(mode_sets) -> np.ndarray:
    """Flat indices of the blocks of each set of mode names in the state's
    covariance: ``cov.take(table)`` is their stack."""
    rows = np.array([[2 * MODE_INDEX[mode] + q for mode in modes for q in (0, 1)] for modes in mode_sets])
    return rows[:, :, None] * len(OMEGA) + rows[:, None, :]


def _snap_zero(values: np.ndarray) -> np.ndarray:
    # a nonnegative measure: negatives and solver-noise magnitudes read as an exact
    # zero, which keeps "> 0" meaningful (a marginal product state is not entangled)
    return np.where(values < ZERO_CLIP, 0.0, values)


def _block_signs(n_modes: int) -> np.ndarray:
    """Row ``i``: -1 on mode ``i``'s two quadratures, 1 elsewhere."""
    dim = 2 * n_modes
    return np.where(np.arange(dim) // 2 == np.arange(n_modes)[:, None], -1.0, 1.0)


def _flipped_forms(n_modes: int) -> np.ndarray:
    """The ``n_modes`` symplectic form with mode ``i``'s block negated, for each ``i``.

    ``F_i Omega F_i`` (``F_i``: mode ``i``'s momentum flip); ``F_i V F_i`` has the
    factor ``F_i L``, so ``L^T (F_i Omega F_i) L`` has the spectrum of the partial
    transpose over mode ``i``.
    """
    dim = 2 * n_modes
    return _block_signs(n_modes)[:, :, None] * OMEGA[:dim, :dim]


_PAIR_FORM = _flipped_forms(2)[0]
_TRIPLE_FORMS = _flipped_forms(3)
#: ``V + _HALF_I_FORMS[i]``: the bona fide matrix of a three-mode ``V`` transposed over mode ``i``.
_HALF_I_FORMS = 0.5j * _TRIPLE_FORMS

_DPOTRF, _DGESDD = FLAPACK.dpotrf, FLAPACK.dgesdd


def _spectrum(cov: np.ndarray) -> np.ndarray:
    """Singular values of ``L^T Omega L`` of the checked 10x10 state, descending:
    each symplectic eigenvalue twice (LAPACK ``dpotrf`` and ``dgesdd``)."""
    factor, info = _DPOTRF(cov, lower=1)
    if info > 0:
        raise PhysicalityError(f"covariance is not positive definite (LAPACK dpotrf info {info})")
    if info == 0:
        _, values, _, info = _DGESDD(_kernel(factor, OMEGA), compute_uv=0)
    if info != 0:  # an illegal argument to either routine, or an SVD that did not converge
        raise SolverError(f"symplectic spectrum failed (LAPACK info {info})")
    return values


def _factor(stack: np.ndarray) -> np.ndarray:
    """Cholesky factor ``L`` (``V = L L^T``) of each covariance of a checked stack."""
    try:
        return np.linalg.cholesky(stack)
    except np.linalg.LinAlgError as exc:
        raise PhysicalityError(f"covariance block is not positive definite ({exc})") from exc


def _det_factor(factor: np.ndarray) -> np.ndarray:
    """``det L`` of each Cholesky factor of a stack: ``det V`` is its square."""
    return factor.diagonal(0, -2, -1).prod(-1)


def _kernel(factor: np.ndarray, form: np.ndarray) -> np.ndarray:
    """``K = L^T J L``, whose singular values are the symplectic eigenvalues of
    ``L L^T`` (of its partial transpose, for a flipped form ``J``), each twice."""
    return factor.swapaxes(-1, -2) @ form @ factor


def _pair_moduli(factor: np.ndarray, det_l: np.ndarray):
    """Partially transposed symplectic eigenvalues (smaller, larger) of two-mode covariances
    from Cholesky factors: ``||u| -+ |w||/2``, with ``u = (a+f, b-e, c+d)`` and
    ``w = (a-f, b+e, c-d)`` from the kernel's upper entries a..f in row order; the smaller
    is their product ``det L`` (the kernel's Pfaffian) over the larger, free of cancellation."""
    k = _kernel(factor, _PAIR_FORM)
    a, b, c, d, e, f = k[:, 0, 1], k[:, 0, 2], k[:, 0, 3], k[:, 1, 2], k[:, 1, 3], k[:, 2, 3]
    u, w = np.hypot(np.hypot(a + f, b - e), c + d), np.hypot(np.hypot(a - f, b + e), c - d)
    larger = (u + w) / 2.0
    return det_l / larger, larger


def _log_negativity(nu: np.ndarray) -> np.ndarray:
    """``-ln(2 nu)`` of the smallest partially transposed symplectic eigenvalues."""
    if not (nu > 0.0).all():
        raise PhysicalityError(f"partially transposed symplectic eigenvalue is {nu.min():.3e} <= 0")
    return -np.log(2.0 * nu)


def _pair_negativities(factor: np.ndarray, det_l: np.ndarray) -> np.ndarray:
    """Log-negativities of a stack of two-mode covariances from their Cholesky factors."""
    return _snap_zero(_log_negativity(_pair_moduli(factor, det_l)[0]))


def _mode_dets(cov: np.ndarray) -> np.ndarray:
    """Determinant of each single-mode 2x2 block of a covariance."""
    diag = cov.diagonal()
    return diag[0::2] * diag[1::2] - cov.diagonal(-1)[0::2] ** 2


def _steerings(det_s: np.ndarray, det_l: np.ndarray) -> np.ndarray:
    """Steering by the first and by the second mode of each two-mode covariance, shape
    (k, 2), from its modes' determinants ``det_s`` (k, 2) and its factor's ``det L``."""
    det_all = det_l[:, None] ** 2
    if not (det_s.min() > 0.0 and det_all.min() > 0.0):
        raise PhysicalityError("covariance determinant is nonpositive")
    return _snap_zero(0.5 * np.log(det_s / (4.0 * det_all)))


def _contangle_plan(triples):
    """Gather tables for the residual contangles of canonical mode triples.

    Returns the :func:`_submatrices` table of the triples, whose covariances
    are each factored once for their three one-versus-rest partial transposes,
    and ``pair_of[t, i]``: the positions in :data:`ALL_PAIRS` of the two pairs
    of triple ``t`` that hold its ``i``-th mode.
    """
    pair_of = [[[ALL_PAIRS.index(_canonical((mode, other))) for other in triple if other != mode]
                for mode in triple] for triple in triples]
    return _submatrices(triples), np.array(pair_of)


# Gather tables of the measure kernel, fixed by the mode order.
_ALL_PAIR_TABLE = _submatrices(ALL_PAIRS)
#: Rows of the indirect pairs in the all-pair stack (same mode orientation), and their modes.
_INDIRECT_OF_ALL = np.array([ALL_PAIRS.index(pair) for pair in INDIRECT_PAIRS])
_INDIRECT_MODES = np.array([[MODE_INDEX[mode] for mode in pair] for pair in INDIRECT_PAIRS])
#: The ordered pairs of the steering values, both directions of each indirect pair in turn.
_STEERING_KEYS = tuple(pair for a, b in INDIRECT_PAIRS for pair in ((a, b), (b, a)))
_TRIPLE_PLAN = _contangle_plan(DEFAULT_TRIPLES)


#: The measure fields of :meth:`MeasureReport.to_record`, in record order: for each
#: report map, its attribute, the field names and the map keys they read.
_RECORD_FIELDS = (
    ("pairwise_E", tuple(f"E_{a}{b}" for a, b in ALL_PAIRS), ALL_PAIRS),
    ("steering", tuple(f"S_{s}_to_{t}" for s, t in _STEERING_KEYS), _STEERING_KEYS),
    ("tripartite_R", tuple(f"R_{''.join(key)}" for key in DEFAULT_TRIPLES), DEFAULT_TRIPLES),
    ("phonon_occ", tuple(f"n_eff_{mode}" for mode in _MECHANICAL), _MECHANICAL),
)
#: Names of a record's measure fields, in order; the other fields are the point's status.
MEASURE_FIELDS = tuple(name for _, names, _ in _RECORD_FIELDS for name in names)


def _transposes_are_ppt(stack: np.ndarray) -> bool:
    """Whether every one-versus-rest partial transpose of a stack of three-mode
    covariances is provably unentangled: one complex Cholesky of the bona fide
    matrices ``V + (i/2) F_i Omega F_i`` (Simon, PRL 84, 2726 (2000)).

    A factorization proves each matrix positive definite.  It is
    ``F_i (F_i V F_i + (i/2) Omega) F_i``, congruent to the partial transpose's bona fide
    matrix by the sign matrix ``F_i``.  With ``F_i V F_i = S D S^T`` (Williamson) that is
    ``S (D + (i/2) Omega) S^T``, whose eigenvalue signs are those of ``nu_j - 1/2``
    (Sylvester's inertia), so every partially transposed symplectic eigenvalue exceeds
    1/2.  Only the lower triangles are read.
    """
    try:
        np.linalg.cholesky(stack[:, None] + _HALF_I_FORMS)
    except np.linalg.LinAlgError:
        return False
    return True


def _triple_contangles(cov: np.ndarray, negativities: np.ndarray) -> np.ndarray:
    """Minimum residual contangle per default triple, given the pair log-negativities.

    Each one-versus-rest contangle is the squared ``max(0, -ln(2 nu))``, ``nu``
    the smallest symplectic eigenvalue after flipping the singled-out mode's
    momentum (partial transpose): one factor per triple serves its three kernels,
    by SVD.  Where no pair of the triples is entangled, :func:`_transposes_are_ppt`
    is tried first; if it proves all twelve terms 0, they are 0 without the factor
    and the SVD.  An entangled pair makes its one-versus-rest transposes entangled
    too, so the proof is not tried there, and the SVD serves every stack it fails.
    """
    table, pair_of = _TRIPLE_PLAN
    stack = cov.take(table)
    pairs = (negativities * negativities)[pair_of]
    if not pairs.any() and _transposes_are_ppt(stack):
        rest = 0.0
    else:
        factor = _factor(stack)[:, None]
        nu = np.linalg.svd(_kernel(factor, _TRIPLE_FORMS), compute_uv=False)[..., -1]
        rest = np.maximum(0.0, _log_negativity(nu))
    return (rest * rest - (pairs[..., 0] + pairs[..., 1])).min(axis=1)


def _occupation(cov: np.ndarray, idx: int) -> float | None:
    """Effective occupation ``(V_xx + V_yy - 1)/2`` of one mode, rounding noise
    below zero clipped; None below vacuum, where it has no thermal reading."""
    value = (cov[2 * idx, 2 * idx] + cov[2 * idx + 1, 2 * idx + 1] - 1.0) / 2.0
    return None if value < -1e-8 else max(0.0, float(value))


def tmsv_covariance(r: float) -> np.ndarray:
    """Covariance of a two-mode squeezed vacuum with squeezing ``r``.

    The canonical analytic family used as a measure oracle: its
    logarithmic negativity is ``2 r`` and its steering is
    ``ln cosh(2 r)`` in both directions, read as ``validate`` does: from the :func:`evaluate_measures`
    report of a vacuum state holding it on two indirectly coupled modes.  ``r`` must be finite and real.
    """
    if finite_number(r, "") is None:
        raise DomainError(f"tmsv_covariance needs a finite real squeezing r, got {r!r}")
    with FloatGuard("squeezed-vacuum covariance"):
        ch, sh = math.cosh(2.0 * r), math.sinh(2.0 * r)
    eye, z = np.eye(2), np.diag([1.0, -1.0])
    return 0.5 * np.block([[ch * eye, sh * z], [sh * z, ch * eye]])


def _lookup(accessor: str, values: dict, key, order=tuple):
    """``values[order(key)]``, else a :class:`DomainError` that names ``accessor`` and ``key``."""
    try:
        return values[order(key)]
    except (KeyError, TypeError):  # TypeError: an unhashable key, or one that is no sequence
        why = "" if values else " (the point is unstable or the family was not evaluated)"
        raise DomainError(f"{accessor} has no value for {key!r}{why}") from None


@dataclass
class MeasureReport:
    """All correlation measures evaluated at one parameter point.

    ``pairwise_E`` maps unordered mode pairs (canonical order) to the
    logarithmic negativity; ``steering`` maps ordered pairs (steering
    party first); ``tripartite_R`` maps canonical mode triples to the
    minimum residual contangle; ``phonon_occ`` maps mode names to the
    effective occupation (None where the reduced state is below vacuum
    and the occupation is undefined).  ``stable`` is False when the
    point failed the stability gate, in which case every map is empty
    and ``reason`` carries a machine-readable code.  An accessor given a key with no value (a directly
    coupled pair's steering, an unknown mode, a triple not in :data:`DEFAULT_TRIPLES`, a family not
    evaluated) raises a :class:`DomainError` that names the accessor and the key.
    """

    stable: bool
    margin: float
    params: SystemParams
    pairwise_E: dict = field(default_factory=dict)
    steering: dict = field(default_factory=dict)
    tripartite_R: dict = field(default_factory=dict)
    phonon_occ: dict = field(default_factory=dict)
    reason: str | None = None
    physical: bool | None = None
    min_symplectic: float | None = None

    def entanglement(self, mode_a: str, mode_b: str) -> float:
        return _lookup("entanglement", self.pairwise_E, (mode_a, mode_b), _canonical)

    def steering_value(self, steering_party: str, steered: str) -> float:
        return _lookup("steering_value", self.steering, (steering_party, steered))

    def contangle(self, modes) -> float:
        return _lookup("contangle", self.tripartite_R, modes, _canonical)

    def to_record(self) -> dict:
        """Flatten to one record with stable, order-independent field names."""
        record = {"stable": self.stable, "reason": self.reason or "", "stability_margin": self.margin,
                  "physical": self.physical, "min_symplectic": self.min_symplectic}
        for attr, names, keys in _RECORD_FIELDS:
            record.update(zip(names, map(getattr(self, attr).get, keys)))
        return record


def evaluate_measures(cov: np.ndarray, params: SystemParams, margin: float,
                      measures: tuple[str, ...] = MEASURE_FAMILIES) -> MeasureReport:
    """Build a full :class:`MeasureReport` from a steady-state covariance.

    ``measures`` selects which families to evaluate.  Entanglement covers
    every mode pair; steering covers the six indirectly coupled pairs in
    both directions; the contangle covers :data:`DEFAULT_TRIPLES`; the
    occupations cover the two mechanical modes, with a below-vacuum
    reduced state recorded as None rather than aborting the report.

    The report carries a ``physical`` flag (smallest symplectic eigenvalue
    >= 1/2 within rounding).  The feedback-modified input noise is an
    approximation that drops below the vacuum floor for nonzero loop phase
    at finite reflectivity, so stable points in that regime can produce
    covariances that are not quantum states; their measures are still
    reported, flagged, and quantum-state theorems (such as steering implying
    entanglement) are only guaranteed where the flag is set.

    ``cov`` is checked once, by :func:`params.real_matrix`: anything but a real
    (bool, int or float dtype) 10x10 matrix, given as an array or a nested list,
    raises :class:`DomainError`, a non-finite entry
    :class:`SolverError`; unknown ``measures`` raise :class:`ConfigError`, and
    an overflow in the measures (of a covariance near 1e150, say) a :class:`SolverError`.
    Symmetry is not checked: only the diagonal and the lower triangle of ``cov`` are read.

    The contangle's one-versus-rest terms come from an SVD of the triples' kernels,
    unless no pair of the default triples is entangled and the bona fide proof of
    :func:`_transposes_are_ppt` shows every term 0; then each residual is +0.0.
    """
    require_families(measures)
    cov = real_matrix(cov, "evaluate_measures needs a finite real 10x10 covariance", (len(OMEGA),))
    with FloatGuard("measures"):
        nu_min = float(_spectrum(cov)[-1])
        report = MeasureReport(stable=True, margin=margin, params=params, min_symplectic=nu_min,
                               physical=bool(nu_min >= 0.5 - PHYSICAL_TOL))
        if not {"entanglement", "steering", "contangle"}.isdisjoint(measures):
            factors = _factor(cov.take(_ALL_PAIR_TABLE))
            det_l = _det_factor(factors)
        if "entanglement" in measures or "contangle" in measures:
            negativities = _pair_negativities(factors, det_l)
        if "entanglement" in measures:
            report.pairwise_E = dict(zip(ALL_PAIRS, negativities.tolist()))
        if "steering" in measures:
            values = _steerings(_mode_dets(cov)[_INDIRECT_MODES], det_l[_INDIRECT_OF_ALL])
            report.steering = dict(zip(_STEERING_KEYS, values.ravel().tolist()))
        if "contangle" in measures:
            values = _triple_contangles(cov, negativities)
            report.tripartite_R = dict(zip(DEFAULT_TRIPLES, values.tolist()))
        if "occupation" in measures:
            report.phonon_occ = {mode: _occupation(cov, MODE_INDEX[mode]) for mode in _MECHANICAL}
        return report
