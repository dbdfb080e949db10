"""The benchmark's workloads: seeded sweep grids built from the public API.

Each workload is a fixed sweep family.  The seed shifts every axis's
start and stop by the same offset, drawn in [0, 1) grid steps, so the
grid's count, span and regime never change; seed 0 is the unshifted grid.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from magnomech.params import BASELINE_CONFIG
from magnomech.sweep import SweepAxis, SweepSpec

_W_B1 = BASELINE_CONFIG["omega_b1"]  # Hz, config convention
_W_B2 = BASELINE_CONFIG["omega_b2"]

ALL_MEASURES = ("entanglement", "steering", "contangle", "occupation")

#: Drive block of ``configs/meanfield_point.cfg``, copied so that the
#: workload stays fixed if that example file changes.
MEANFIELD_DRIVE = {
    "drive_power": 4e-3,
    "laser_power": 30e-3,
    "sphere_radius": 100e-6,
    "spin_count": 1.77e16,
    "gyromagnetic_ratio": 28e9,
    "drive_freq_2": 1.934e14,
    "bare_D_mb1": 0.1,
    "bare_D_cb2": 100.0,
    "temperature": 0.010,
}


@dataclass(frozen=True)
class Workload:
    """A sweep family: axes as (parameter, start, stop, count) plus options."""

    name: str
    axes: tuple
    fixed: dict = field(default_factory=dict)
    measures: tuple = ALL_MEASURES
    nonreciprocity: bool = False
    coupling_mode: str = "direct"

    def spec(self, seed: int, counts: tuple | None = None) -> SweepSpec:
        """Sweep spec for ``seed``; ``counts`` overrides the axis counts (tests)."""
        rng = random.Random(seed)
        axes = []
        for i, (name, start, stop, count) in enumerate(self.axes):
            if counts is not None:
                count = counts[i]
            offset = 0.0 if seed == 0 else rng.random() * (stop - start) / (count - 1)
            axes.append(SweepAxis(name, start + offset, stop + offset, count))
        return SweepSpec(
            axes[0],
            axes[1] if len(axes) > 1 else None,
            fixed=dict(self.fixed),
            measures=self.measures,
            nonreciprocity=self.nonreciprocity,
            coupling_mode=self.coupling_mode,
        )


def row_configs(spec: SweepSpec) -> list:
    """Per-row lists of the point configurations ``run_sweep`` evaluates.

    Rows are in ``run_sweep``'s row-major order.  A contrast row holds the
    ``+`` and then the ``-`` rotation-shift configuration; every other row
    holds one.  Each configuration carries the control keys ``measures``
    and ``coupling_mode``, so it can be passed to ``run_point`` as is.
    """
    control = {"measures": ",".join(spec.measures), "coupling_mode": spec.coupling_mode}
    axes = [spec.axis1] + ([spec.axis2] if spec.axis2 else [])
    points = [{axes[0].name: float(v)} for v in axes[0].values()]
    if len(axes) == 2:
        points = [
            {**p, axes[1].name: float(v)} for p in points for v in axes[1].values()
        ]
    rows = []
    for point in points:
        config = {**spec.fixed, **point, **control}
        if not spec.nonreciprocity:
            rows.append([config])
            continue
        magnitude = abs(config.get("barnett_shift", 0.0))
        rows.append([{**config, "barnett_shift": s * magnitude} for s in (1.0, -1.0)])
    return rows


_DETUNING_AXES = (
    ("delta_m_tilde", -2.0 * _W_B1, 0.0),
    ("delta_c_tilde", 0.0, 2.0 * _W_B2),
)

# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="detuning-es",
            axes=tuple((n, a, b, 33) for n, a, b in _DETUNING_AXES),
            measures=("entanglement", "steering"),
        ),
        Workload(
            name="tripartite-contrast",
            axes=(("temperature", 0.0, 1.0, 161),),
            fixed={"reflectivity": 0.1, "theta": math.pi, "barnett_shift": 0.2 * _W_B1},
            nonreciprocity=True,
        ),
        Workload(
            name="meanfield-detuning",
            axes=tuple((n, a, b, 25) for n, a, b in _DETUNING_AXES),
            fixed=dict(MEANFIELD_DRIVE),
            measures=("entanglement",),
            coupling_mode="meanfield",
        ),
    )
}
