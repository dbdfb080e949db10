"""Gaussian correlation measures evaluated on steady-state covariances.

All operations take covariance matrices in the (X, Y)-per-mode ordering
with vacuum variance 1/2.  Bipartite entanglement is the logarithmic
negativity from the partially transposed two-mode covariance, steering
is the Renyi-2 measure, and tripartite entanglement the minimum residual
contangle (a squared one-versus-rest log-negativity less the squared pair
log-negativities).  One batched kernel serves :func:`evaluate_measures`
and the scalar functions alike: each covariance stack is factored once,
``V = L L^T`` (Cholesky), and the singular values of ``L^T J L`` are the
symplectic eigenvalues (Williamson's theorem), ``J`` the symplectic form
with the first momentum flipped for a partial transpose: in closed form
for two modes, by SVD for more.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PhysicalityError, SolverError
from .model import MODE_INDEX, MODE_ORDER, OMEGA
from .params import SystemParams

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
        idx = MODE_INDEX[mode] if isinstance(mode, str) else int(mode)
        if not 0 <= idx < len(MODE_ORDER):
            raise DomainError(f"mode index {mode!r} out of range")
        if idx in out:
            raise DomainError(f"duplicate mode {mode!r} in reduction")
        out.append(idx)
    return out


def reduce_modes(cov: np.ndarray, modes) -> np.ndarray:
    """Covariance of a subset of modes, in the requested order.

    ``modes`` is a sequence of mode names or indices; the result is the
    2k x 2k submatrix of their (X, Y) rows and columns.
    """
    rows = _quadratures(_mode_indices(modes))
    return cov[np.ix_(rows, rows)]


def _canonical(modes) -> tuple:
    return tuple(sorted(modes, key=MODE_INDEX.__getitem__))


def _quadratures(modes) -> list[int]:
    return [q for i in modes for q in (2 * i, 2 * i + 1)]


def _block(cov, dim: int, name: str) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (dim, dim):
        raise DomainError(f"{name} needs a {dim}x{dim} covariance matrix")
    return cov


def _gather(cov: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Stack of the submatrices of ``cov`` on each row of quadrature indices."""
    return cov[rows[:, :, None], rows[:, None, :]]


def _snap_zero(values: np.ndarray) -> np.ndarray:
    # a nonnegative measure: negatives and solver-noise magnitudes read as an exact
    # zero, which keeps "> 0" meaningful (a marginal product state is not entangled)
    return np.where(values < ZERO_CLIP, 0.0, values)


#: ``F Omega F`` (``F``: the first mode's momentum flip) negates Omega's first block;
#: ``F V F`` has the Cholesky factor ``F L F``, so ``L^T (F Omega F) L`` has its spectrum.
_OMEGA_PT = np.where(np.arange(len(OMEGA)) < 2, -1.0, 1.0)[:, None] * OMEGA

#: Maps a flat 4x4 kernel with upper entries a..f to u = (a+f, b-e, c+d), w = (a-f, b+e, c-d).
_UW = np.eye(16)[:, (1, 2, 3) * 2] + np.eye(16)[:, (11, 13, 6) * 2] * np.repeat([1.0, -1.0], 3)


def _factor(stack: np.ndarray) -> np.ndarray:
    """Cholesky factor ``L`` (``V = L L^T``) of each covariance of a stack."""
    if not np.isfinite(stack).all():
        raise SolverError("covariance block has non-finite entries")
    try:
        return np.linalg.cholesky(stack)
    except np.linalg.LinAlgError as exc:
        raise PhysicalityError(f"covariance block is not positive definite ({exc})") from exc


def _kernel(factor: np.ndarray, transpose: bool) -> np.ndarray:
    """``K = L^T J L``, whose singular values are the symplectic eigenvalues of
    ``L L^T`` (of its partial transpose with ``transpose``), each twice."""
    dim = factor.shape[-1]
    return factor.swapaxes(-1, -2) @ (_OMEGA_PT if transpose else OMEGA)[:dim, :dim] @ factor


def _pair_moduli(factor: np.ndarray):
    """Partially transposed symplectic eigenvalues (smaller, larger) of two-mode covariances
    from Cholesky factors: ``||u| -+ |w||/2`` (see :data:`_UW`), the smaller taken as their
    product ``det L`` (the kernel's Pfaffian) over the larger, free of cancellation."""
    u1, u2, u3, w1, w2, w3 = (_kernel(factor, True).reshape(-1, 16) @ _UW).T
    larger = (np.hypot(np.hypot(u1, u2), u3) + np.hypot(np.hypot(w1, w2), w3)) / 2.0
    return np.prod(np.diagonal(factor, axis1=1, axis2=2), axis=1) / larger, larger


def _log_negativity(nu: np.ndarray) -> np.ndarray:
    """``-ln(2 nu)`` of the smallest partially transposed symplectic eigenvalues."""
    if not (nu > 0.0).all():
        raise PhysicalityError(f"partially transposed symplectic eigenvalue is {nu.min():.3e} <= 0")
    return -np.log(2.0 * nu)


def _pair_negativities(factor: np.ndarray) -> np.ndarray:
    """Log-negativities of a stack of two-mode covariances from their Cholesky factors."""
    return _snap_zero(_log_negativity(_pair_moduli(factor)[0]))


def _steerings(stack: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Steering by the first and by the second mode of each two-mode covariance, shape
    (k, 2): ``det V`` is the squared product of the Cholesky diagonal, ``det V_s`` closed-form."""
    blocks = np.diagonal(stack.reshape(-1, 2, 2, 2, 2), axis1=1, axis2=3)
    det_s = blocks[:, 0, 0] * blocks[:, 1, 1] - blocks[:, 1, 0] ** 2
    det_all = np.prod(np.diagonal(factor, axis1=1, axis2=2), axis=1)[:, None] ** 2
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
    cov = np.asarray(cov, dtype=float)
    dim = cov.shape[0] if cov.ndim == 2 and cov.shape[0] == cov.shape[1] else 0
    if dim not in range(2, len(OMEGA) + 1, 2):
        raise DomainError(f"symplectic spectrum needs a square covariance of one to five modes, "
                          f"got shape {cov.shape}")
    factor = _factor(cov)
    return np.linalg.svd(_kernel(factor, False), compute_uv=False)[::-1][::2]


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

    Returns the quadrature rows of each one-versus-rest bipartition
    (singled-out mode first, three per triple) and ``pair_of[t, i]``: the
    positions, among the ``n_modes`` state's mode pairs in :data:`ALL_PAIRS`
    order, of the two pairs of triple ``t`` that hold its ``i``-th mode.
    """
    pairs = list(itertools.combinations(range(n_modes), 2))
    rest = [[mode, *(m for m in triple if m != mode)] for triple in triples for mode in triple]
    pair_of = [[pairs.index(tuple(sorted((first, other)))) for other in others]
               for first, *others in rest]
    return np.array([_quadratures(modes) for modes in rest]), np.array(pair_of).reshape(-1, 3, 2)


# Gather tables of the measure kernel, fixed by the mode order.
_ALL_PAIR_ROWS = np.array([_quadratures(_mode_indices(pair)) for pair in ALL_PAIRS])
_THREE_PAIR_ROWS = np.array([_quadratures(pair) for pair in itertools.combinations(range(3), 2)])
#: Rows of the indirect pairs in the all-pair stack (same mode orientation).
_INDIRECT_OF_ALL = np.array([ALL_PAIRS.index(pair) for pair in INDIRECT_PAIRS])
_TRIPLE_KEYS = tuple(_canonical(triple) for triple in DEFAULT_TRIPLES)
_TRIPLE_PLAN = _contangle_plan([_mode_indices(key) for key in _TRIPLE_KEYS], len(MODE_ORDER))
_ONE_TRIPLE = _contangle_plan([(0, 1, 2)], 3)


#: The measure fields of :meth:`MeasureReport.to_record`, in record order: for each
#: report map, its attribute, the field names and the map keys they read.
_RECORD_FIELDS = (
    ("pairwise_E", tuple(f"E_{a}{b}" for a, b in ALL_PAIRS), ALL_PAIRS),
    ("steering", tuple(f"S_{s}_to_{t}" for a, b in INDIRECT_PAIRS for s, t in ((a, b), (b, a))),
     tuple(pair for a, b in INDIRECT_PAIRS for pair in ((a, b), (b, a)))),
    ("tripartite_R", tuple(f"R_{''.join(key)}" for key in _TRIPLE_KEYS), _TRIPLE_KEYS),
    ("phonon_occ", ("n_eff_b1", "n_eff_b2"), ("b1", "b2")),
)
#: Names of a record's measure fields, in order; the other fields are the point's status.
MEASURE_FIELDS = tuple(name for _, names, _ in _RECORD_FIELDS for name in names)


def _contangles(stack: np.ndarray) -> np.ndarray:
    """Squared ``max(0, -ln(2 nu))`` per matrix, ``nu`` the smallest symplectic
    eigenvalue after flipping the first mode's momentum (partial transpose)."""
    nu = np.linalg.svd(_kernel(_factor(stack), True), compute_uv=False)[..., -1]
    e = np.maximum(0.0, _log_negativity(nu))
    return e * e


def _residual_contangles(cov: np.ndarray, plan, negativities: np.ndarray) -> np.ndarray:
    """Minimum residual contangle per triple of ``plan``, given the pair log-negativities."""
    rest_rows, pair_of = plan
    rest = _contangles(_gather(cov, rest_rows)).reshape(pair_of.shape[:2])
    pairs = (negativities * negativities)[pair_of]
    return (rest - (pairs[..., 0] + pairs[..., 1])).min(axis=1)


def log_negativity(cov4: np.ndarray) -> float:
    """Logarithmic negativity of a two-mode covariance matrix.

    ``max(0, -ln(2 nu))``, ``nu`` the smaller symplectic eigenvalue of the
    partial transpose: a closed-form singular value of ``L^T J L``.  A matrix
    not positive definite, or whose ``nu`` rounds to 0, raises :class:`PhysicalityError`.
    """
    cov4 = _block(cov4, 4, "log_negativity")[None]
    return float(_pair_negativities(_factor(cov4))[0])


def gaussian_steering(cov4: np.ndarray, steering_mode: int = 0) -> float:
    """Renyi-2 Gaussian steering of a two-mode state, in one direction.

    ``steering_mode`` selects which of the two modes (0 = first block,
    1 = second) acts as the steering party; the measure is
    ``max(0, ln det(2 V_s)/2 - ln det(2 V)/2)`` and is directional by
    construction.
    """
    cov4 = _block(cov4, 4, "gaussian_steering")
    if steering_mode not in (0, 1):
        raise DomainError("steering_mode must be 0 or 1")
    return float(_steerings(cov4[None], _factor(cov4[None]))[0, steering_mode])


def residual_contangle(cov6: np.ndarray) -> float:
    """Minimum residual contangle of a three-mode covariance matrix.

    For each of the three one-versus-two bipartitions, the residual is
    the one-versus-rest contangle minus the one-versus-one contangles of
    the singled-out mode, the squared log-negativities of its two pairs;
    the minimum over bipartitions is returned.  Positive values witness
    genuine tripartite entanglement.
    """
    cov6 = _block(cov6, 6, "residual_contangle")
    negativities = _pair_negativities(_factor(_gather(cov6, _THREE_PAIR_ROWS)))
    return float(_residual_contangles(cov6, _ONE_TRIPLE, negativities)[0])


def contrast_ratio(value_plus: float, value_minus: float) -> float:
    """Bidirectional contrast |v+ - v-| / (v+ + v-), with 0/0 -> 0.

    Quantifies how nonreciprocal a nonnegative measure is between the
    two rotation directions; 1 means the measure survives in only one
    of them.
    """
    if value_plus < 0.0 or value_minus < 0.0:
        raise DomainError("contrast_ratio requires nonnegative inputs")
    total = value_plus + value_minus
    return abs(value_plus - value_minus) / total if total else 0.0


def effective_phonon_number(cov: np.ndarray, mode) -> float:
    """Effective occupation (V_xx + V_yy - 1)/2 of one mode.

    Small negative rounding noise is clipped to zero; a genuinely
    negative value means the reduced state is below vacuum, which the
    thermal reading of this number cannot represent.
    """
    (idx,) = _mode_indices([mode])
    value = (cov[2 * idx, 2 * idx] + cov[2 * idx + 1, 2 * idx + 1] - 1.0) / 2.0
    if value < -1e-8:
        raise PhysicalityError(f"effective occupation of mode {MODE_ORDER[idx]} is {value:.3e} < 0")
    return max(0.0, float(value))


def tmsv_covariance(r: float) -> np.ndarray:
    """Covariance of a two-mode squeezed vacuum with squeezing ``r``.

    The canonical analytic family used as a measure oracle: its
    logarithmic negativity is ``2 r`` and its steering is
    ``ln cosh(2 r)`` in both directions.
    """
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
    """
    nu_min = float(symplectic_eigenvalues(cov)[0])
    report = MeasureReport(stable=True, margin=margin, params=params,
                           physical=bool(nu_min >= 0.5 - PHYSICAL_TOL), min_symplectic=nu_min)
    if not {"entanglement", "steering", "contangle"}.isdisjoint(measures):
        pairs = _gather(cov, _ALL_PAIR_ROWS)
        factors = _factor(pairs)
    if "entanglement" in measures or "contangle" in measures:
        negativities = _pair_negativities(factors)
    if "entanglement" in measures:
        report.pairwise_E = dict(zip(ALL_PAIRS, negativities.tolist()))
    if "steering" in measures:
        values = _steerings(pairs, factors)[_INDIRECT_OF_ALL]
        for (a, b), (a_to_b, b_to_a) in zip(INDIRECT_PAIRS, values.tolist()):
            report.steering.update({(a, b): a_to_b, (b, a): b_to_a})
    if "contangle" in measures:
        values = _residual_contangles(cov, _TRIPLE_PLAN, negativities)
        report.tripartite_R = dict(zip(_TRIPLE_KEYS, values.tolist()))
    if "occupation" in measures:
        for mode in ("b1", "b2"):
            try:
                report.phonon_occ[mode] = effective_phonon_number(cov, mode)
            except PhysicalityError:
                report.phonon_occ[mode] = None
    return report
