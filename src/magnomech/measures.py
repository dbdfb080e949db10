"""Gaussian correlation measures evaluated on steady-state covariances.

All operations take covariance matrices in the (X, Y)-per-mode ordering
with vacuum variance 1/2.  Bipartite entanglement is the logarithmic
negativity from the partially transposed two-mode covariance, steering
is the Renyi-2 measure, and tripartite entanglement the minimum residual
contangle (a squared one-versus-rest log-negativity less the squared pair
log-negativities).  One batched kernel serves :func:`evaluate_measures`
and the scalar functions alike: a covariance is factored once,
``V = L L^T`` (Cholesky), and the singular values of ``L^T J L`` are its
symplectic eigenvalues (Williamson's theorem), ``J`` the symplectic form,
or that form with one mode's block negated for the partial transpose over
that mode, so one factor serves every partial transpose: in closed form
for two modes, by SVD for more.  :func:`evaluate_measures` checks the
state once, factors it by LAPACK ``dpotrf`` and ``dgesdd``, and factors
its ten mode pairs and four default triples as one stack each; steering
reads the state's single-mode determinants and the pairs' ``det L``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg as sla

from .errors import ConfigError, DomainError, FloatGuard, PhysicalityError, SolverError
from .model import MODE_INDEX, MODE_ORDER, OMEGA
from .params import SystemParams, finite_number, real_matrix

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

#: Mode triples reported by default: the optical mode with the microwave
#: or magnon mode plus one mechanical mode.
DEFAULT_TRIPLES = (("b1", "m", "c"), ("b2", "c", "a"), ("b2", "m", "c"), ("b1", "c", "a"))


def _mode_indices(modes) -> list[int]:
    out = []
    for mode in modes:
        if not isinstance(mode, str) or mode not in MODE_INDEX:
            raise DomainError(f"unknown mode {mode!r}; the modes are {', '.join(MODE_ORDER)}")
        if MODE_INDEX[mode] in out:
            raise DomainError(f"duplicate mode {mode!r} in reduction")
        out.append(MODE_INDEX[mode])
    return out


def require_families(measures) -> None:
    """A :class:`ConfigError` unless ``measures`` is a tuple or list of :data:`MEASURE_FAMILIES`."""
    if not isinstance(measures, (tuple, list)):
        raise ConfigError(f"measures must be a tuple of family names, got {measures!r}")
    for name in measures:
        if name not in MEASURE_FAMILIES:
            raise ConfigError(f"unknown measure family {name!r} in measures")


def reduce_modes(cov: np.ndarray, modes) -> np.ndarray:
    """Covariance of a subset of modes, in the requested order.

    ``modes`` is a sequence of distinct mode names, ``cov`` a real square covariance
    that holds them in the canonical mode order (else :class:`DomainError`) with finite
    entries (else :class:`SolverError`); the result is the 2k x 2k submatrix of their
    (X, Y) rows and columns.
    """
    indices = _mode_indices(modes)
    cov = _checked(cov, range(2 * max(indices, default=0) + 2, len(OMEGA) + 1, 2),
                   f"reduce_modes needs a real square covariance that holds {modes}")
    rows = _quadratures(indices)
    return cov[np.ix_(rows, rows)]


def _canonical(modes) -> tuple:
    return tuple(sorted(modes, key=MODE_INDEX.__getitem__))


def _quadratures(modes) -> list[int]:
    return [q for i in modes for q in (2 * i, 2 * i + 1)]


def _checked(cov, dims, need: str) -> np.ndarray:
    """``cov`` as a float array after its one check: :func:`~magnomech.params.real_matrix`
    with a dimension in ``dims``, then a :class:`SolverError` if an entry is not finite."""
    cov = real_matrix(cov, need, dims)
    if not np.isfinite(cov).all():
        raise SolverError("covariance has non-finite entries")
    return cov


def _submatrices(mode_sets, n_modes: int) -> np.ndarray:
    """Flat indices of the blocks of each set of mode indices in an ``n_modes``
    covariance: ``cov.take(table)`` is their stack."""
    rows = np.array([_quadratures(modes) for modes in mode_sets])
    return rows[:, :, None] * (2 * n_modes) + rows[:, None, :]


def _snap_zero(values: np.ndarray) -> np.ndarray:
    # a nonnegative measure: negatives and solver-noise magnitudes read as an exact
    # zero, which keeps "> 0" meaningful (a marginal product state is not entangled)
    return np.where(values < ZERO_CLIP, 0.0, values)


def _flipped_forms(n_modes: int) -> np.ndarray:
    """The ``n_modes`` symplectic form with mode ``i``'s block negated, for each ``i``.

    ``F_i Omega F_i`` (``F_i``: mode ``i``'s momentum flip); ``F_i V F_i`` has the
    factor ``F_i L``, so ``L^T (F_i Omega F_i) L`` has the spectrum of the partial
    transpose over mode ``i``.
    """
    dim = 2 * n_modes
    signs = np.where(np.arange(dim) // 2 == np.arange(n_modes)[:, None], -1.0, 1.0)
    return signs[:, :, None] * OMEGA[:dim, :dim]


_PAIR_FORM = _flipped_forms(2)[0]
_TRIPLE_FORMS = _flipped_forms(3)

_DPOTRF, _DGESDD = sla.get_lapack_funcs(("potrf", "gesdd"), (np.empty((1, 1)),))


def _spectrum(cov: np.ndarray) -> np.ndarray:
    """Singular values of ``L^T Omega L`` of one checked covariance, descending:
    each symplectic eigenvalue twice (LAPACK ``dpotrf`` and ``dgesdd``)."""
    factor, info = _DPOTRF(cov, lower=1)
    if info > 0:
        raise PhysicalityError(f"covariance is not positive definite (LAPACK dpotrf info {info})")
    if info == 0:
        _, values, _, info = _DGESDD(_kernel(factor, OMEGA[:len(cov), :len(cov)]), compute_uv=0)
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


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, sorted ascending.

    The singular values of ``L^T Omega L``, ``V = L L^T`` (Cholesky), are the
    symplectic eigenvalues, each twice; the result holds each once.  Physical
    states (vacuum variance 1/2) have every nu >= 1/2; a matrix that is not
    positive definite raises :class:`PhysicalityError`, and one that is not
    square with an even dimension of 2 to 10 (one to five modes) :class:`DomainError`.
    """
    cov = _checked(cov, range(2, len(OMEGA) + 1, 2),
                   "symplectic spectrum needs a square covariance of one to five modes")
    return _spectrum(cov)[::-1][::2]


def is_physical(cov: np.ndarray) -> bool:
    """Whether ``cov`` is positive definite with symplectic spectrum >= 1/2 - PHYSICAL_TOL.

    A matrix of the wrong shape raises :class:`DomainError`, as in
    :func:`symplectic_eigenvalues`.
    """
    try:
        return bool(symplectic_eigenvalues(cov)[0] >= 0.5 - PHYSICAL_TOL)
    except PhysicalityError:
        return False


def _contangle_plan(triples, n_modes):
    """Gather tables for the residual contangles of ascending mode-index triples.

    Returns the :func:`_submatrices` table of the triples, whose covariances
    are each factored once for their three one-versus-rest partial transposes,
    and ``pair_of[t, i]``: the positions, among the ``n_modes`` state's mode
    pairs in :data:`ALL_PAIRS` order, of the two pairs of triple ``t`` that
    hold its ``i``-th mode.
    """
    pairs = list(itertools.combinations(range(n_modes), 2))
    pair_of = [[[pairs.index(tuple(sorted((mode, other)))) for other in triple if other != mode]
                for mode in triple] for triple in triples]
    return _submatrices(triples, n_modes), np.array(pair_of)


# Gather tables of the measure kernel, fixed by the mode order.
_ALL_PAIR_TABLE = _submatrices(map(_mode_indices, ALL_PAIRS), len(MODE_ORDER))
_THREE_PAIR_TABLE = _submatrices(itertools.combinations(range(3), 2), 3)
#: Rows of the indirect pairs in the all-pair stack (same mode orientation), and their modes.
_INDIRECT_OF_ALL = np.array([ALL_PAIRS.index(pair) for pair in INDIRECT_PAIRS])
_INDIRECT_MODES = np.array([_mode_indices(pair) for pair in INDIRECT_PAIRS])
#: The ordered pairs of the steering values, both directions of each indirect pair in turn.
_STEERING_KEYS = tuple(pair for a, b in INDIRECT_PAIRS for pair in ((a, b), (b, a)))
_TRIPLE_KEYS = tuple(_canonical(triple) for triple in DEFAULT_TRIPLES)
_TRIPLE_PLAN = _contangle_plan([_mode_indices(key) for key in _TRIPLE_KEYS], len(MODE_ORDER))
_ONE_TRIPLE = _contangle_plan([(0, 1, 2)], 3)


#: The measure fields of :meth:`MeasureReport.to_record`, in record order: for each
#: report map, its attribute, the field names and the map keys they read.
_RECORD_FIELDS = (
    ("pairwise_E", tuple(f"E_{a}{b}" for a, b in ALL_PAIRS), ALL_PAIRS),
    ("steering", tuple(f"S_{s}_to_{t}" for s, t in _STEERING_KEYS), _STEERING_KEYS),
    ("tripartite_R", tuple(f"R_{''.join(key)}" for key in _TRIPLE_KEYS), _TRIPLE_KEYS),
    ("phonon_occ", ("n_eff_b1", "n_eff_b2"), ("b1", "b2")),
)
#: Names of a record's measure fields, in order; the other fields are the point's status.
MEASURE_FIELDS = tuple(name for _, names, _ in _RECORD_FIELDS for name in names)


def _residual_contangles(cov: np.ndarray, plan, negativities: np.ndarray) -> np.ndarray:
    """Minimum residual contangle per triple of ``plan``, given the pair log-negativities.

    Each one-versus-rest contangle is the squared ``max(0, -ln(2 nu))``, ``nu``
    the smallest symplectic eigenvalue after flipping the singled-out mode's
    momentum (partial transpose): one factor per triple serves its three kernels.
    """
    table, pair_of = plan
    factor = _factor(cov.take(table))[:, None]
    nu = np.linalg.svd(_kernel(factor, _TRIPLE_FORMS), compute_uv=False)[..., -1]
    rest = np.maximum(0.0, _log_negativity(nu))
    pairs = (negativities * negativities)[pair_of]
    return (rest * rest - (pairs[..., 0] + pairs[..., 1])).min(axis=1)


def log_negativity(cov4: np.ndarray) -> float:
    """Logarithmic negativity of a two-mode covariance matrix.

    ``max(0, -ln(2 nu))``, ``nu`` the smaller symplectic eigenvalue of the
    partial transpose: a closed-form singular value of ``L^T J L``.  A matrix
    not positive definite, or whose ``nu`` rounds to 0, raises :class:`PhysicalityError`.
    """
    cov4 = _checked(cov4, (4,), "log_negativity needs a 4x4 covariance")
    with FloatGuard("logarithmic negativity"):
        factor = _factor(cov4[None])
        return float(_pair_negativities(factor, _det_factor(factor))[0])


def gaussian_steering(cov4: np.ndarray, steering_mode: int = 0) -> float:
    """Renyi-2 Gaussian steering of a two-mode state, in one direction.

    ``steering_mode`` selects which of the two modes (0 = first block,
    1 = second) acts as the steering party; the measure is
    ``max(0, ln det(2 V_s)/2 - ln det(2 V)/2)`` and is directional by
    construction; any mode but the integer 0 or 1 is a :class:`DomainError`.
    """
    cov4 = _checked(cov4, (4,), "gaussian_steering needs a 4x4 covariance")
    if (isinstance(steering_mode, bool) or not isinstance(steering_mode, (int, np.integer))
            or steering_mode not in (0, 1)):
        raise DomainError(f"steering_mode must be the integer 0 or 1, got {steering_mode!r}")
    with FloatGuard("Gaussian steering"):
        det_l = _det_factor(_factor(cov4[None]))
        return float(_steerings(_mode_dets(cov4)[None], det_l)[0, steering_mode])


def residual_contangle(cov6: np.ndarray) -> float:
    """Minimum residual contangle of a three-mode covariance matrix.

    For each of the three one-versus-two bipartitions, the residual is
    the one-versus-rest contangle minus the one-versus-one contangles of
    the singled-out mode, the squared log-negativities of its two pairs;
    the minimum over bipartitions is returned.  Positive values witness
    genuine tripartite entanglement.
    """
    cov6 = _checked(cov6, (6,), "residual_contangle needs a 6x6 covariance")
    with FloatGuard("residual contangle"):
        factor = _factor(cov6.take(_THREE_PAIR_TABLE))
        negativities = _pair_negativities(factor, _det_factor(factor))
        return float(_residual_contangles(cov6, _ONE_TRIPLE, negativities)[0])


def contrast_ratio(value_plus: float, value_minus: float) -> float:
    """Bidirectional contrast |v+ - v-| / (v+ + v-), with 0/0 -> 0.

    Quantifies how nonreciprocal a nonnegative measure is between the
    two rotation directions; 1 means the measure survives in only one
    of them.
    """
    if not (0.0 <= value_plus < math.inf and 0.0 <= value_minus < math.inf):  # NaN fails too
        raise DomainError("contrast_ratio requires finite nonnegative inputs")
    total = value_plus + value_minus
    if total == math.inf:  # halving is exact, so the ratio of the halves is the same
        return contrast_ratio(value_plus / 2.0, value_minus / 2.0)
    return abs(value_plus - value_minus) / total if total else 0.0


def _occupation(cov: np.ndarray, idx: int) -> float:
    value = (cov[2 * idx, 2 * idx] + cov[2 * idx + 1, 2 * idx + 1] - 1.0) / 2.0
    if value < -1e-8:
        raise PhysicalityError(f"effective occupation of mode {MODE_ORDER[idx]} is {value:.3e} < 0")
    return max(0.0, float(value))


def effective_phonon_number(cov: np.ndarray, mode) -> float:
    """Effective occupation (V_xx + V_yy - 1)/2 of one mode.

    Small negative rounding noise is clipped to zero; a genuinely
    negative value means the reduced state is below vacuum, which the
    thermal reading of this number cannot represent.  An unknown mode name, or
    a covariance that does not hold the mode as :func:`reduce_modes` requires,
    raises :class:`DomainError`, a non-finite variance of the mode :class:`SolverError`.
    """
    (idx,) = _mode_indices([mode])
    cov = real_matrix(cov, f"effective_phonon_number of mode {MODE_ORDER[idx]} needs a real "
                      "square covariance that holds it", range(2 * idx + 2, len(OMEGA) + 1, 2))
    if not np.isfinite(cov.diagonal()[2 * idx:2 * idx + 2]).all():
        raise SolverError(f"variance of mode {MODE_ORDER[idx]} is not finite")
    with FloatGuard("effective occupation"):
        return _occupation(cov, idx)


def tmsv_covariance(r: float) -> np.ndarray:
    """Covariance of a two-mode squeezed vacuum with squeezing ``r``.

    The canonical analytic family used as a measure oracle: its
    logarithmic negativity is ``2 r`` and its steering is
    ``ln cosh(2 r)`` in both directions.  ``r`` must be a finite real number.
    """
    if finite_number(r, "") is None:
        raise DomainError(f"tmsv_covariance needs a finite real squeezing r, got {r!r}")
    with FloatGuard("squeezed-vacuum covariance"):
        ch, sh = math.cosh(2.0 * r), math.sinh(2.0 * r)
    eye, z = np.eye(2), np.diag([1.0, -1.0])
    return 0.5 * np.block([[ch * eye, sh * z], [sh * z, ch * eye]])


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
    and ``reason`` carries a machine-readable code.
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
        return self.pairwise_E[_canonical((mode_a, mode_b))]

    def steering_value(self, steering_party: str, steered: str) -> float:
        return self.steering[(steering_party, steered)]

    def contangle(self, modes) -> float:
        return self.tripartite_R[_canonical(modes)]

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

    ``cov`` is checked once: anything but a real (bool, int or float dtype)
    10x10 numpy array raises :class:`DomainError`, a non-finite entry
    :class:`SolverError`; unknown ``measures`` raise :class:`ConfigError`, and
    an overflow in the measures (of a covariance near 1e150, say) a :class:`SolverError`.
    """
    require_families(measures)
    if not isinstance(cov, np.ndarray):
        raise DomainError(f"evaluate_measures needs a numpy array, got {type(cov).__name__}")
    cov = _checked(cov, (len(OMEGA),), "evaluate_measures needs a real 10x10 covariance")
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
            values = _residual_contangles(cov, _TRIPLE_PLAN, negativities)
            report.tripartite_R = dict(zip(_TRIPLE_KEYS, values.tolist()))
        if "occupation" in measures:
            for mode in ("b1", "b2"):
                try:
                    report.phonon_occ[mode] = _occupation(cov, MODE_INDEX[mode])
                except PhysicalityError:
                    report.phonon_occ[mode] = None
        return report
