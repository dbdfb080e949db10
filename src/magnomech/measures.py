"""Gaussian correlation measures evaluated on steady-state covariances.

All operations take covariance matrices in the (X, Y)-per-mode ordering
with vacuum variance 1/2.  Bipartite entanglement is the logarithmic
negativity from the partially transposed two-mode covariance, steering
is the Renyi-2 measure, and tripartite entanglement the minimum residual
contangle (a squared one-versus-rest log-negativity less the squared pair
log-negativities).  One batched kernel serves :func:`evaluate_measures`
and the scalar functions alike: one stack of block determinants gives the
pair negativities and steering, one stacked eigvals the one-versus-rest terms.
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


def _lapack(function, stack: np.ndarray) -> np.ndarray:
    try:
        return function(stack)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"{function.__name__} failed on a covariance block: {exc}") from exc


def _snap_zero(values: np.ndarray) -> np.ndarray:
    # solver-noise magnitudes are indistinguishable from an exact zero; snapping
    # keeps "> 0" meaningful (a marginal product state must not read as entangled)
    return np.where(np.abs(values) < ZERO_CLIP, 0.0, values)


def _pair_dets(stack: np.ndarray):
    """Determinants of the 2x2 blocks, shape (k, 2, 2), and of each 4x4 matrix."""
    blocks = stack.reshape(len(stack), 2, 2, 2, 2).swapaxes(2, 3)
    # numpy's det warns of a division by zero on blocks of subnormal entries,
    # whose determinant underflows; the 0.0 it returns is correctly rounded
    with np.errstate(divide="ignore"):
        return _lapack(np.linalg.det, blocks), _lapack(np.linalg.det, stack)


def _log_negativities(blocks: np.ndarray, det_all: np.ndarray) -> np.ndarray:
    """Log-negativities from :func:`_pair_dets` of a stack of two-mode covariances."""
    sigma = blocks[:, 0, 0] + blocks[:, 1, 1] - 2.0 * blocks[:, 0, 1]
    disc = sigma * sigma - 4.0 * det_all
    scale = sigma * sigma + 4.0 * np.abs(det_all)
    # the discriminant vanishes identically for balanced states; only
    # violations beyond rounding scale are physicality errors
    bad = disc < -ZERO_CLIP * scale
    if bad.any():
        raise PhysicalityError("partially transposed symplectic spectrum is complex "
                               f"(sigma^2 - 4 det V = {disc[bad][0]:.3e} < 0)")
    # a rounding-level discriminant is a degenerate spectrum, which is never
    # entangled; its square root would read as up to ~5e-9 of negativity
    disc = np.where(disc <= 16.0 * np.finfo(float).eps * scale, 0.0, disc)
    inner = (sigma - np.sqrt(disc)) / 2.0
    if (inner <= 0.0).any():
        raise PhysicalityError(f"squared symplectic eigenvalue is nonpositive ({inner.min():.3e})")
    return _snap_zero(np.maximum(0.0, -np.log(2.0 * np.sqrt(inner))))


def _steerings(det_s: np.ndarray, det_all: np.ndarray) -> np.ndarray:
    if (det_s <= 0.0).any() or (det_all <= 0.0).any():
        raise PhysicalityError("covariance determinant is nonpositive")
    return _snap_zero(np.maximum(0.0, 0.5 * np.log(det_s / (4.0 * det_all))))


def _symplectic_moduli(stack: np.ndarray) -> np.ndarray:
    """|eigenvalues| of Omega V for each V; each symplectic eigenvalue twice."""
    dim = stack.shape[-1]
    return np.abs(_lapack(np.linalg.eigvals, OMEGA[:dim, :dim] @ stack))


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, sorted ascending.

    The eigenvalues of ``i * Omega * V`` come in pairs +/-nu; the returned
    array holds each nu once.  With vacuum variance 1/2, physical states
    have every nu >= 1/2.  Covers up to the model's five modes.
    """
    return np.sort(_symplectic_moduli(np.asarray(cov, dtype=float)))[::2]


def is_physical(cov: np.ndarray) -> bool:
    """True when every symplectic eigenvalue is >= 1/2 - PHYSICAL_TOL."""
    return bool(symplectic_eigenvalues(cov)[0] >= 0.5 - PHYSICAL_TOL)


def _partial_transpose(cov: np.ndarray, mode: int) -> np.ndarray:
    flip = np.ones(cov.shape[0])
    flip[2 * mode + 1] = -1.0
    return cov * np.outer(flip, flip)


#: Momentum sign flip of the first mode (phase-space partial transpose);
#: its leading 2k x 2k block applies to a k-mode covariance.
_FLIP_FIRST = _partial_transpose(np.ones(OMEGA.shape), 0)


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


def _contangles(stack: np.ndarray) -> np.ndarray:
    """Squared ``max(0, -ln(2 nu))`` per matrix, ``nu`` the smallest symplectic
    eigenvalue after flipping the first mode's momentum (partial transpose)."""
    dim = stack.shape[-1]
    nu = _symplectic_moduli(stack * _FLIP_FIRST[:dim, :dim]).min(axis=-1)
    if (nu <= 0.0).any():
        raise PhysicalityError("partially transposed covariance is singular")
    e = np.maximum(0.0, -np.log(2.0 * nu))
    return e * e


def _residual_contangles(cov: np.ndarray, plan, negativities: np.ndarray) -> np.ndarray:
    """Minimum residual contangle per triple of ``plan``, given the pair log-negativities."""
    rest_rows, pair_of = plan
    rest = _contangles(_gather(cov, rest_rows)).reshape(pair_of.shape[:2])
    pairs = (negativities * negativities)[pair_of]
    return (rest - (pairs[..., 0] + pairs[..., 1])).min(axis=1)


def log_negativity(cov4: np.ndarray) -> float:
    """Logarithmic negativity of a two-mode covariance matrix.

    Computes the smaller symplectic eigenvalue of the partially
    transposed state from the block determinants,
    ``eta = sqrt((sigma - sqrt(sigma^2 - 4 det V))/2)`` with
    ``sigma = det V_1 + det V_2 - 2 det V_12``, and returns
    ``max(0, -ln(2 eta))``.
    """
    cov4 = _block(cov4, 4, "log_negativity")
    return float(_log_negativities(*_pair_dets(cov4[None]))[0])


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
    blocks, det_all = _pair_dets(cov4[None])
    return float(_steerings(blocks[:, steering_mode, steering_mode], det_all)[0])


def residual_contangle(cov6: np.ndarray) -> float:
    """Minimum residual contangle of a three-mode covariance matrix.

    For each of the three one-versus-two bipartitions, the residual is
    the one-versus-rest contangle minus the one-versus-one contangles of
    the singled-out mode, the squared log-negativities of its two pairs;
    the minimum over bipartitions is returned.  Positive values witness
    genuine tripartite entanglement.
    """
    cov6 = _block(cov6, 6, "residual_contangle")
    negativities = _log_negativities(*_pair_dets(_gather(cov6, _THREE_PAIR_ROWS)))
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
        for pair in ALL_PAIRS:
            record[f"E_{pair[0]}{pair[1]}"] = self.pairwise_E.get(pair)
        for a, b in INDIRECT_PAIRS:
            record[f"S_{a}_to_{b}"] = self.steering.get((a, b))
            record[f"S_{b}_to_{a}"] = self.steering.get((b, a))
        for key in _TRIPLE_KEYS:
            record[f"R_{''.join(key)}"] = self.tripartite_R.get(key)
        for mode in ("b1", "b2"):
            record[f"n_eff_{mode}"] = self.phonon_occ.get(mode)
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
        blocks, det_all = _pair_dets(_gather(cov, _ALL_PAIR_ROWS))
    if "entanglement" in measures or "contangle" in measures:
        negativities = _log_negativities(blocks, det_all)
    if "entanglement" in measures:
        report.pairwise_E = dict(zip(ALL_PAIRS, negativities.tolist()))
    if "steering" in measures:
        blocks, det_all = blocks[_INDIRECT_OF_ALL], det_all[_INDIRECT_OF_ALL]
        values = _steerings(np.diagonal(blocks, axis1=1, axis2=2), det_all[:, None])
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
