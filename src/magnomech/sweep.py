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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    ConvergenceError,
    MagnomechError,
    SingularPointError,
    SolverError,
    StabilityError,
)
from .lyapunov import solve_lyapunov, stability_check
from .measures import (
    MEASURE_FAMILIES,
    MEASURE_FIELDS,
    MeasureReport,
    contrast_ratio,
    evaluate_measures,
    require_families,
)
from .meanfield import solve_self_consistent
from .model import build_diffusion, build_drift, drive_conversions
from .params import (
    DRIVE_KEYS,
    SYSTEM_KEYS,
    SystemParams,
    finite_number,
    require_mapping,
    resolve_drive_params,
    resolve_system_params,
)

_SWEEP_ONLY_KEYS = {
    "axis1", "axis1_start", "axis1_stop", "axis1_count",
    "axis2", "axis2_start", "axis2_stop", "axis2_count",
    "nonreciprocity", "measures", "coupling_mode",
}


@dataclass(frozen=True)
class SweepAxis:
    """One linearly spaced sweep axis over a named parameter; bounds are floats in file units."""

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.name not in SYSTEM_KEYS:
            raise ConfigError(f"axis parameter {self.name!r} is not a model parameter")
        for bound in ("start", "stop"):
            value = getattr(self, bound)
            if finite_number(value, SYSTEM_KEYS[self.name]) is None:
                raise ConfigError(f"axis {self.name!r} {bound} must be a finite number, got {value!r}")
            object.__setattr__(self, bound, float(value))
        count = self.count
        if finite_number(count, "") is None or not float(count).is_integer():
            raise ConfigError(f"axis {self.name!r} count must be a whole number, got {count!r}")
        if count < 2:
            raise ConfigError(f"axis {self.name!r} needs count >= 2")
        object.__setattr__(self, "count", int(count))

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)

    def column(self) -> str:
        unit = SYSTEM_KEYS[self.name]
        return f"{self.name}_{unit}" if unit else self.name


@dataclass(frozen=True)
class SweepSpec:
    """A full sweep: axes, fixed overrides and evaluation options.

    ``fixed`` keys must be model parameters, or drive parameters when
    ``coupling_mode`` is ``meanfield``; its values are checked per point.
    The spec keeps its own copy of ``fixed``.
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
        require_mapping(self.fixed, "fixed")
        _, drive, control = split_config(self.fixed)
        if control:
            raise ConfigError(f"fixed keys {sorted(control)} are not model or drive parameters")
        _check_coupling(drive, self.coupling_mode)
        object.__setattr__(self, "fixed", dict(self.fixed))


@dataclass
class ResultTable:
    """Rows of a finished sweep in deterministic grid order."""

    columns: list
    rows: list


def split_config(config: dict):
    """Partition a parsed config mapping into system/drive/sweep parts."""
    require_mapping(config, "a config")
    system, drive, control = {}, {}, {}
    for key, value in config.items():
        if key in SYSTEM_KEYS:
            system[key] = value
        elif key in DRIVE_KEYS:
            drive[key] = value
        elif key in _SWEEP_ONLY_KEYS:
            control[key] = value
        else:
            raise ConfigError(f"unknown configuration key {key!r}")
    return system, drive, control


def _check_coupling(drive_keys, coupling_mode) -> None:
    if coupling_mode not in ("direct", "meanfield"):
        raise ConfigError("coupling_mode must be 'direct' or 'meanfield'")
    if drive_keys and coupling_mode == "direct":
        raise ConfigError(f"drive keys {sorted(drive_keys)} need coupling_mode = meanfield")


def _control_options(control: dict) -> tuple:
    """The ``(measures, coupling_mode)`` of a config's control keys.

    ``measures`` is a checked comma list of families, all of them when absent
    or empty; ``coupling_mode`` (default ``direct``) is checked where it is used.
    """
    raw = control.get("measures")
    names = () if raw is None else tuple(part.strip() for part in str(raw).split(",") if part.strip())
    measures = names or MEASURE_FAMILIES
    require_families(measures)
    return measures, str(control.get("coupling_mode", "direct"))


def _parse_axis(control: dict, which: str) -> SweepAxis | None:
    name = control.get(which)
    if name is None:
        for part in ("start", "stop", "count"):
            if f"{which}_{part}" in control:
                raise ConfigError(f"{which}_{part} given without {which}")
        return None
    try:
        bounds = [control[f"{which}_{part}"] for part in ("start", "stop", "count")]
    except KeyError as exc:
        raise ConfigError(f"{which} needs {which}_start/_stop/_count") from exc
    try:
        return SweepAxis(str(name), *bounds)
    except ConfigError as exc:
        raise ConfigError(f"{which}: {exc}") from exc


def sweep_spec_from_config(config: dict) -> SweepSpec:
    """Build a :class:`SweepSpec` from a parsed configuration mapping."""
    system, drive, control = split_config(config)
    measures, coupling_mode = _control_options(control)
    return SweepSpec(
        axis1=_parse_axis(control, "axis1"),
        axis2=_parse_axis(control, "axis2"),
        fixed={**system, **drive},
        measures=measures,
        nonreciprocity=control.get("nonreciprocity", False),
        coupling_mode=coupling_mode,
    )


def resolve_point(config: dict, coupling_mode: str = "direct") -> SystemParams:
    """Resolve a config mapping to :class:`SystemParams`.

    Of the sweep control keys only ``measures`` and ``coupling_mode`` may
    appear (neither is read here); any other one is a :class:`ConfigError`,
    and so are drive keys in ``direct`` mode.  In ``meanfield`` mode the
    drive block is completed by :func:`drive_conversions`, and the effective
    couplings and the displacement-shifted detunings are produced by the
    self-consistent amplitude solve.  Only the real parts ``Re G`` of the
    complex effective couplings enter the drift matrix.  The dropped
    imaginary parts are not negligible: on ``configs/meanfield_point.cfg``
    ``|Im G_m / Re G_m|`` is 5.0% and ``|Im G_c / Re G_c|`` is 5.4%.
    Using ``|G|`` instead (ROADMAP.md item 4) would change existing
    sweep outputs.
    """
    system, drive, control = split_config(config)
    sweep_only = sorted(control.keys() - {"measures", "coupling_mode"})
    if sweep_only:
        raise ConfigError(f"sweep keys {sweep_only} do not apply to a single point")
    _check_coupling(drive, coupling_mode)
    params = resolve_system_params(system)
    if coupling_mode == "direct":
        return params
    drives = drive_conversions(resolve_drive_params(drive), params.gamma_c)
    amplitudes = solve_self_consistent(params, drives)
    return dataclasses.replace(
        params,
        G_m=amplitudes.g_m_eff.real,
        G_c=amplitudes.g_c_eff.real,
        delta_m_tilde=amplitudes.delta_m_eff - params.barnett_shift,
        delta_c_tilde=amplitudes.delta_c_eff - params.fb_shift,
    )


def evaluate_point(params: SystemParams, measures=MEASURE_FAMILIES) -> MeasureReport:
    """Gate on stability, solve for the covariance, evaluate measures; a floating-point
    overflow or invalid operation on the way (at 1e100 K, say) is a :class:`SolverError`."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            drift = build_drift(params)
            gate = stability_check(drift)
            if not gate.stable:
                return MeasureReport(stable=False, margin=gate.margin, params=params,
                                     reason="unstable")
            cov = solve_lyapunov(drift, build_diffusion(params))
            return evaluate_measures(cov, params, gate.margin, measures)
    except FloatingPointError as exc:
        raise SolverError(f"floating-point failure: {exc}") from exc


def run_point(config: dict) -> MeasureReport:
    """Full pipeline for one configuration mapping.

    Of the sweep control keys only ``measures`` and ``coupling_mode`` apply
    to a single point; :func:`resolve_point` rejects any other one.
    """
    _, _, control = split_config(config)
    measures, coupling_mode = _control_options(control)
    return evaluate_point(resolve_point(config, coupling_mode), measures)


def _reason_code(exc: MagnomechError) -> str:
    if isinstance(exc, StabilityError):
        return "unstable"
    if isinstance(exc, (SingularPointError, ConvergenceError)):
        return "singular"
    return "nonphysical"


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
        failed = MeasureReport(stable=False, margin=None, params=None, reason=_reason_code(exc))
        return [failed.to_record() for _ in configs]


#: Each measure field of a record with its ``+``, ``-`` and contrast columns.
_CONTRAST_FIELDS = tuple((key, f"{key}_plus", f"{key}_minus", f"C_{key}") for key in MEASURE_FIELDS)


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
        if vp is None or vm is None:
            row[key_contrast] = None
        else:
            # residual contangles can be negative; the contrast is defined
            # on the nonnegative part
            row[key_contrast] = contrast_ratio(max(vp, 0.0), max(vm, 0.0))
    return row


def run_sweep(spec: SweepSpec, workers: int = 1) -> ResultTable:
    """Evaluate a sweep grid and collect rows in deterministic order.

    With ``nonreciprocity`` each grid cell is evaluated at both signs of
    the Barnett shift and emitted as one contrast row.  Any point-level
    numerical failure becomes an error row carrying a machine-readable
    reason code; it never aborts the sweep.
    """
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
    workers = min(workers, len(tasks))
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
    tables produce byte-identical files.
    """
    if not table.rows:
        raise ValueError("refusing to emit an empty table")
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
