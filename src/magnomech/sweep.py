"""Single-point evaluation, parameter sweeps and result serialization.

A sweep is described by the same flat configuration mapping as a single
point plus axis keys (``axis1``, ``axis1_start``, ``axis1_stop``,
``axis1_count`` and optionally the ``axis2`` family).  Grid points are
independent, may be evaluated by any number of worker processes, and are
always emitted in row-major grid order, so output files are byte-identical
regardless of parallelism.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, MagnomechError, StabilityError
from .lyapunov import solve_lyapunov, stability_check
from .measures import (
    MEASURE_FAMILIES,
    MEASURE_FIELDS,
    MeasureReport,
    evaluate_measures,
    require_families,
)
from .meanfield import solve_self_consistent
from .model import build_diffusion, build_drift
from .params import (
    DRIVE_KEYS,
    DRIVE_SOURCES,
    SYSTEM_KEYS,
    DriveParams,
    SystemParams,
    finite_number,
    require_mapping,
    resolve_drive_params,
    resolve_system_params,
)

_POINT_KEYS = ("measures", "coupling_mode")  # the control keys that apply to a single point
#: The control keys of a config: each axis's name and bounds, then the options.
_CONTROL_KEYS = (
    "axis1", "axis1_start", "axis1_stop", "axis1_count",
    "axis2", "axis2_start", "axis2_stop", "axis2_count",
    "nonreciprocity", *_POINT_KEYS,
)

#: The longest float array numpy can index: one more element and its size in bytes overflows intp.
_MAX_COUNT = np.iinfo(np.intp).max // np.dtype(float).itemsize

_FROM_CONFIG = object()  # default coupling_mode of split_config and resolve_point: the config's, else direct

#: Per coupling mode, the parameter keys it never reads and the message naming
#: them: a value given for one could not take effect.  ``meanfield`` derives the
#: effective couplings from the drive block.
_UNREAD_KEYS = {
    "direct": (frozenset(DRIVE_KEYS), "drive keys {} need coupling_mode = meanfield"),
    "meanfield": (frozenset(("G_m", "G_c")),
                  "keys {} are derived by the amplitude solve in coupling_mode = meanfield"),
}


def _require_coupled(drives: DriveParams) -> None:
    """Raise DomainError naming the drive-block fields that cannot take effect: a drive
    that is on while its bare coupling is 0, or a nonzero bare coupling while no drive is on."""
    couplings = {"rabi": "bare_D_mb1", "laser_coupling": "bare_D_cb2"}  # per DRIVE_SOURCES amplitude
    on = {amplitude: [name for name in (amplitude, *conversion) if getattr(drives, name)]
          for amplitude, conversion in DRIVE_SOURCES.items()}
    bare = [coupling for coupling in couplings.values() if getattr(drives, coupling)]
    for amplitude, coupling in couplings.items():
        if on[amplitude] and coupling not in bare:
            raise DomainError(f"{', '.join(on[amplitude])} cannot take effect with {coupling} = 0")
    if bare and not any(on.values()):
        raise DomainError(f"{', '.join(bare)} cannot take effect with no drive on")


def _require_read(keys, mode: str) -> None:
    """Raise ConfigError naming every key of ``keys`` that coupling ``mode`` never reads."""
    unread, message = _UNREAD_KEYS[mode]
    named = unread.intersection(keys)
    if named:
        raise ConfigError(message.format(sorted(named)))


@dataclass(frozen=True)
class SweepAxis:
    """One linearly spaced sweep axis over a named parameter; bounds are floats in file units."""

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if not isinstance(self.name, str) or self.name not in SYSTEM_KEYS:
            raise ConfigError(f"axis parameter {self.name!r} is not a model parameter")
        for bound in ("start", "stop"):
            value = getattr(self, bound)
            if finite_number(value, SYSTEM_KEYS[self.name]) is None:
                raise ConfigError(f"axis {self.name!r} {bound} must be a finite number, got {value!r}")
            object.__setattr__(self, bound, float(value))
        if finite_number(self.stop - self.start, "") is None:  # values() would yield nan and inf
            raise ConfigError(f"axis {self.name!r} span from {self.start!r} to {self.stop!r} overflows")
        count = self.count
        if finite_number(count, "") is None or not float(count).is_integer():
            raise ConfigError(f"axis {self.name!r} count must be a whole number, got {count!r}")
        if count < 2:
            raise ConfigError(f"axis {self.name!r} needs count >= 2")
        if count > _MAX_COUNT:  # values() would raise a bare ValueError
            raise ConfigError(f"axis {self.name!r} count {count!r} exceeds {_MAX_COUNT}, "
                              f"the longest float array numpy can index")
        object.__setattr__(self, "count", int(count))

    def values(self) -> np.ndarray:
        try:
            return np.linspace(self.start, self.stop, self.count)
        except MemoryError:  # a count numpy can index but no memory holds
            raise ConfigError(f"axis {self.name!r} count {self.count} does not fit in memory") from None

    def column(self) -> str:
        unit = SYSTEM_KEYS[self.name]
        return f"{self.name}_{unit}" if unit else self.name


@dataclass(frozen=True)
class SweepSpec:
    """A full sweep: axes, fixed overrides and evaluation options.

    ``fixed`` keys must be parameters that ``coupling_mode`` reads (see
    :func:`split_config`); its values are checked per point.  Every value a
    spec names takes effect, so an axis may not address a fixed parameter or
    one that the mode derives (``G_m``, ``G_c`` in ``meanfield``): either is
    a :class:`ConfigError` that names the key.
    The spec keeps its own copy of ``fixed`` and its own tuple of ``measures``.
    """

    axis1: SweepAxis
    axis2: SweepAxis | None = None
    fixed: dict = dataclasses.field(default_factory=dict)
    measures: tuple = MEASURE_FAMILIES
    nonreciprocity: bool = False
    coupling_mode: str = "direct"

    def __post_init__(self):
        if not isinstance(self.axis1, SweepAxis) or not isinstance(self.axis2, (SweepAxis, type(None))):
            raise ConfigError("a sweep needs a SweepAxis as axis1 and, optionally, as axis2")
        if self.axis2 is not None and self.axis2.name == self.axis1.name:
            raise ConfigError("the two sweep axes must address distinct parameters")
        if not isinstance(self.nonreciprocity, bool):
            raise ConfigError(f"nonreciprocity must be true or false, got {self.nonreciprocity!r}")
        require_families(self.measures)
        split_config(self.fixed, (), self.coupling_mode)
        names = [axis.name for axis in (self.axis1, self.axis2) if axis is not None]
        for name in names:
            if name in self.fixed:
                raise ConfigError(f"{name!r} is both swept and fixed; drop the fixed value or the axis")
        _require_read(names, self.coupling_mode)
        object.__setattr__(self, "fixed", dict(self.fixed))
        object.__setattr__(self, "measures", tuple(self.measures))


@dataclass
class ResultTable:
    """Rows of a finished sweep in deterministic grid order."""

    columns: list
    rows: list


def split_config(config: dict, allowed: tuple = _CONTROL_KEYS, coupling_mode=_FROM_CONFIG):
    """The one config reader: ``(system, drive, control)`` parts of a checked config mapping.

    An unknown key, or a control key outside ``allowed``, is a :class:`ConfigError`.
    ``control["coupling_mode"]`` is the config's key, else the argument, else
    ``direct``; it must be ``direct`` or ``meanfield`` and equal any argument given.
    A parameter key the mode never reads is a :class:`ConfigError` that names it:
    drive keys in ``direct`` mode, ``G_m`` and ``G_c`` (which the amplitude solve
    derives) in ``meanfield`` mode.  ``control["measures"]`` is the checked tuple
    of families of the comma list (a string), all of them when it is absent or empty.
    """
    require_mapping(config, "a config")
    system, drive, control = {}, {}, {}
    for key, value in config.items():
        if key in SYSTEM_KEYS:
            system[key] = value
        elif key in DRIVE_KEYS:
            drive[key] = value
        elif key not in _CONTROL_KEYS:
            raise ConfigError(f"unknown configuration key {key!r}")
        elif key not in allowed:
            raise ConfigError(f"control key {key!r} does not apply here; "
                              f"allowed: {', '.join(allowed) or 'none'}")
        else:
            control[key] = value
    mode = control.setdefault("coupling_mode", "direct" if coupling_mode is _FROM_CONFIG else coupling_mode)
    if mode not in ("direct", "meanfield"):
        raise ConfigError(f"coupling_mode must be 'direct' or 'meanfield', got {mode!r}")
    if coupling_mode is not _FROM_CONFIG and mode != coupling_mode:
        raise ConfigError(f"config key coupling_mode = {mode!r} differs "
                          f"from the coupling_mode argument {coupling_mode!r}")
    _require_read(config, mode)
    raw = control.get("measures")
    if raw is not None and not isinstance(raw, str):
        raise ConfigError(f"measures must be a comma list of family names, got {raw!r}")
    names = () if raw is None else tuple(part.strip() for part in raw.split(",") if part.strip())
    control["measures"] = names or MEASURE_FAMILIES
    require_families(control["measures"])
    return system, drive, control


def _parse_axis(control: dict, keys: tuple) -> SweepAxis | None:
    """The axis of ``keys``, its name key and three bound keys, or None if it has no name."""
    which, *bound_keys = keys
    given = [key for key in bound_keys if key in control]
    if control.get(which) is None:
        if given:
            raise ConfigError(f"{given[0]} given without {which}")
        return None
    if len(given) < len(bound_keys):
        raise ConfigError(f"{which} needs {which}_start/_stop/_count")
    try:
        return SweepAxis(str(control[which]), *(control[key] for key in bound_keys))
    except ConfigError as exc:
        raise ConfigError(f"{which}: {exc}") from exc


def sweep_spec_from_config(config: dict) -> SweepSpec:
    """Build a :class:`SweepSpec` from a parsed configuration mapping."""
    system, drive, control = split_config(config)
    return SweepSpec(
        axis1=_parse_axis(control, _CONTROL_KEYS[:4]),
        axis2=_parse_axis(control, _CONTROL_KEYS[4:8]),
        fixed={**system, **drive},
        measures=control["measures"],
        nonreciprocity=control.get("nonreciprocity", False),
        coupling_mode=control["coupling_mode"],
    )


def resolve_point(config: dict, coupling_mode=_FROM_CONFIG) -> SystemParams:
    """Resolve a config mapping to :class:`SystemParams`.

    :func:`split_config` checks the config: of the control keys only ``measures`` (a checked list)
    and ``coupling_mode`` (else the argument, else ``direct``; both given must agree) may appear.
    In ``meanfield`` mode the self-consistent amplitude solve of the drive block gives the
    effective couplings and the displacement-shifted detunings, so a config that sets
    ``G_m`` or ``G_c`` there is a :class:`ConfigError`; a drive on while its bare coupling is 0,
    or a nonzero bare coupling with no drive on, is a :class:`DomainError`.  Only the real parts
    ``Re G`` of the complex effective couplings enter the drift matrix.  The dropped imaginary
    parts are not negligible: on ``configs/meanfield_point.cfg`` ``|Im G_m / Re G_m|``
    is 5.0% and ``|Im G_c / Re G_c|`` is 5.4%.  Using ``|G|`` instead (ROADMAP.md
    item 4) would change existing sweep outputs.
    """
    system, drive, control = split_config(config, _POINT_KEYS, coupling_mode)
    params = resolve_system_params(system)
    if control["coupling_mode"] == "direct":
        return params
    drives = resolve_drive_params(drive)
    _require_coupled(drives)
    amplitudes = solve_self_consistent(params, drives)
    return dataclasses.replace(
        params,
        G_m=amplitudes.g_m_eff.real,
        G_c=amplitudes.g_c_eff.real,
        delta_m_tilde=amplitudes.delta_m_eff - params.barnett_shift,
        delta_c_tilde=amplitudes.delta_c_eff - params.fb_shift,
    )


def evaluate_point(params: SystemParams, measures=MEASURE_FAMILIES) -> MeasureReport:
    """Gate on stability, solve for the covariance, evaluate measures; the solve and
    the measures turn a floating-point overflow (at 1e100 K, say) into a :class:`SolverError`.

    Unknown ``measures`` are a :class:`ConfigError`, on a point the gate rejects too."""
    require_families(measures)
    drift = build_drift(params)
    gate = stability_check(drift)
    if not gate.stable:
        return MeasureReport(stable=False, margin=gate.margin, params=params, reason=StabilityError.reason)
    cov = solve_lyapunov(drift, build_diffusion(params))
    return evaluate_measures(cov, params, gate.margin, measures)


def run_point(config: dict) -> MeasureReport:
    """Full pipeline for one configuration mapping.

    Of the control keys only ``measures`` and ``coupling_mode`` apply to a
    single point; :func:`split_config` rejects any other one.
    """
    _, _, control = split_config(config, _POINT_KEYS)
    return evaluate_point(resolve_point(config), control["measures"])


def _evaluate_task(task):
    """Worker entry point: one record per config of a grid cell, never raise.

    A failure on any config turns every record of the cell into an
    error record carrying the reason code.
    """
    configs, measures, coupling_mode = task
    try:
        return [
            evaluate_point(resolve_point(config, coupling_mode), measures).to_record()
            for config in configs
        ]
    except MagnomechError as exc:
        failed = MeasureReport(stable=False, margin=None, params=None, reason=exc.reason)
        return [failed.to_record() for _ in configs]


#: Each measure field of a record with its ``+``, ``-`` and contrast columns.
_CONTRAST_FIELDS = tuple((key, f"{key}_plus", f"{key}_minus", f"C_{key}") for key in MEASURE_FIELDS)


def _contrast(plus: float, minus: float) -> float:
    """Bidirectional contrast ``|v+ - v-| / (v+ + v-)`` of the nonnegative parts, 0 when both are 0.

    1 means the measure survives in one rotation sign only.  Residual
    contangles can be negative; the contrast is defined on the nonnegative part.
    """
    plus, minus = max(plus, 0.0), max(minus, 0.0)
    total = plus + minus
    if total == math.inf:  # halving is exact, so the ratio of the halves is the same
        plus, minus = plus / 2.0, minus / 2.0
        total = plus + minus
    return abs(plus - minus) / total if total else 0.0


def _row(records: list) -> dict:
    """One output row: the record itself, or the contrast row of a +/- pair."""
    if len(records) == 1:
        return records[0]
    plus, minus = records
    row = {
        "stable_plus": plus["stable"],
        "stable_minus": minus["stable"],
        "reason": plus["reason"] or minus["reason"],
        "stability_margin_plus": plus["stability_margin"],
        "stability_margin_minus": minus["stability_margin"],
        "physical_plus": plus["physical"],
        "physical_minus": minus["physical"],
    }
    for key, key_plus, key_minus, key_contrast in _CONTRAST_FIELDS:
        vp, vm = plus[key], minus[key]
        row[key_plus] = vp
        row[key_minus] = vm
        row[key_contrast] = None if vp is None or vm is None else _contrast(vp, vm)
    return row


def run_sweep(spec: SweepSpec, workers: int = 1) -> ResultTable:
    """Evaluate a sweep grid and collect rows in deterministic order.

    With ``nonreciprocity`` each grid cell is evaluated at both signs of
    the Barnett shift and emitted as one contrast row.  Any point-level
    numerical failure becomes an error row carrying a machine-readable
    reason code; it never aborts the sweep.  ``workers`` must be a whole
    number, else a :class:`ConfigError`; at most 1 runs serially.
    """
    if finite_number(workers, "") is None or not float(workers).is_integer():
        raise ConfigError(f"workers must be a whole number, got {workers!r}")
    axes = [axis for axis in (spec.axis1, spec.axis2) if axis is not None]
    names = [axis.name for axis in axes]
    tasks, axis_values = [], []
    for cell in itertools.product(*(axis.values() for axis in axes)):
        values = tuple(float(v) for v in cell)
        config = {**spec.fixed, **dict(zip(names, values))}
        configs = (config,)
        if spec.nonreciprocity:
            shift = config.get("barnett_shift", 0.0)
            # a shift that is not a finite number stays unsigned, so
            # resolve_system_params rejects it and the cell becomes an error row
            numeric = finite_number(shift, SYSTEM_KEYS["barnett_shift"]) is not None
            configs = tuple({**config, "barnett_shift": sign * abs(shift) if numeric else shift}
                            for sign in (1.0, -1.0))
        tasks.append((configs, spec.measures, spec.coupling_mode))
        axis_values.append(values)

    # the pool starts all its workers at once; more than one per task is waste
    workers = min(int(workers), len(tasks))
    if workers <= 1:
        outcomes = [_evaluate_task(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(tasks) // (workers * 4))
            outcomes = list(pool.map(_evaluate_task, tasks, chunksize=chunk))

    return ResultTable(
        columns=[axis.column() for axis in axes] + list(_row(outcomes[0])),
        rows=[list(values) + list(_row(records).values())
              for values, records in zip(axis_values, outcomes)],
    )


def _line_template(types: tuple) -> tuple:
    """The ``%`` template of a CSV line whose cells have these types, and the
    positions of its ``bool`` cells, which it takes as ``true``/``false`` text.

    A ``float`` (``np.float64`` included) is ``%.12e``, None is empty and
    anything else is ``str()``.
    """
    slots = ["%.0s" if kind is type(None) else "%.12e" if issubclass(kind, float) else "%s"
             for kind in types]
    return ",".join(slots), [i for i, kind in enumerate(types) if kind is bool]


def emit(table: ResultTable, fmt: str, stream) -> None:
    """Write a result table as CSV or JSON to the text stream ``stream``.

    The caller opens the stream, as ``cli._output`` opens ``--out``.  CSV uses
    '.' decimals, scientific notation with 13 significant digits and
    newline-terminated rows; JSON is an array of flat objects.  Identical
    tables produce byte-identical files; a table without rows is its header
    line as CSV and ``[]`` as JSON.
    """
    if fmt == "csv":
        lines = [",".join(table.columns)]
        templates = {}
        for row in table.rows:
            types = tuple(map(type, row))
            shape = templates.get(types)
            if shape is None:
                shape = templates[types] = _line_template(types)
            template, flags = shape
            if flags:
                row = list(row)  # a copy: the table keeps its bools
                for i in flags:
                    row[i] = "true" if row[i] else "false"
            lines.append(template % tuple(row))
        payload = "\n".join(lines) + "\n"
    elif fmt == "json":
        objects = [dict(zip(table.columns, row)) for row in table.rows]
        payload = json.dumps(objects, indent=1) + "\n"
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    stream.write(payload)
