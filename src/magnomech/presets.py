"""Shipped sweep presets covering the standard operating regimes.

Every preset fixes the parameters it does not sweep to the baseline
operating point.  Where the coherent feedback loop is active the phase
is set to theta = pi: under this package's sign convention for the
loop (reflected amplitude entering with +L*exp(i*theta), effective
damping gamma_c*(1 - 2*L*cos(theta))) that is the phase at which high
reflectivity deepens the effective optical damping and the model stays
dynamically stable; theta = 0 turns the optical mode into an amplifier
beyond L = 0.45 and the stability gate rejects the entire grid there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError
from .params import BASELINE_CONFIG
from .sweep import SweepAxis, SweepSpec

_W_B1 = BASELINE_CONFIG["omega_b1"]  # Hz, config convention
_W_B2 = BASELINE_CONFIG["omega_b2"]

_FB = {"reflectivity": 0.9, "theta": math.pi}
_BE = {"barnett_shift": 0.2 * _W_B1}
_DETUNING_COUNT = 33  # points per axis of the detuning-plane presets


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    spec: SweepSpec


def _detuning_axes():
    return (
        SweepAxis("delta_m_tilde", -2.0 * _W_B1, 0.0, _DETUNING_COUNT),
        SweepAxis("delta_c_tilde", 0.0, 2.0 * _W_B2, _DETUNING_COUNT),
    )


def _build_presets() -> dict:
    presets = {}

    def add(name, description, spec):
        presets[name] = Preset(name, description, spec)

    ax_m, ax_c = _detuning_axes()
    add(
        "detuning-grid",
        "Pairwise entanglement and steering over the magnon/optical detuning plane, no feedback, non-rotating sphere.",
        SweepSpec(ax_m, ax_c, fixed={}, measures=("entanglement", "steering")),
    )
    add(
        "detuning-grid-fb",
        "Detuning plane with the feedback loop at reflectivity 0.9.",
        SweepSpec(ax_m, ax_c, fixed=dict(_FB), measures=("entanglement", "steering")),
    )
    add(
        "detuning-grid-fb-be",
        "Detuning plane with feedback and a +0.2*omega_b1 rotation shift.",
        SweepSpec(ax_m, ax_c, fixed={**_FB, **_BE}, measures=("entanglement", "steering")),
    )
    add(
        "phase-reflectivity-grid",
        "Feedback phase versus reflectivity at the standard operating detunings.",
        SweepSpec(
            SweepAxis("theta", -math.pi, math.pi, 33),
            SweepAxis("reflectivity", 0.0, 0.95, 33),
            fixed=dict(_BE),
            measures=("entanglement", "steering"),
        ),
    )
    add(
        "coupling-grid",
        "Magnon-microwave versus phonon-phonon coupling plane, no feedback.",
        SweepSpec(
            SweepAxis("D_ma", 0.0, 3.0e6, 33),
            SweepAxis("D_b1b2", 0.0, 3.0e6, 33),
            fixed={},
            measures=("entanglement", "steering"),
        ),
    )
    add(
        "coupling-grid-fb-be",
        "Coupling plane with feedback (0.9) and the rotation shift.",
        SweepSpec(
            SweepAxis("D_ma", 0.0, 3.0e6, 33),
            SweepAxis("D_b1b2", 0.0, 3.0e6, 33),
            fixed={**_FB, **_BE},
            measures=("entanglement", "steering"),
        ),
    )
    add(
        "temperature-baseline",
        "All measures against bath temperature, no feedback, non-rotating.",
        SweepSpec(SweepAxis("temperature", 0.0, 0.5, 41), fixed={}),
    )
    add(
        "temperature-fb",
        "Temperature scan with the feedback loop at reflectivity 0.9.",
        SweepSpec(SweepAxis("temperature", 0.0, 1.0, 41), fixed=dict(_FB)),
    )
    add(
        "temperature-fb-be",
        "Temperature scan with feedback and the rotation shift.",
        SweepSpec(SweepAxis("temperature", 0.0, 1.0, 41), fixed={**_FB, **_BE}),
    )
    add(
        "barnett-temperature-grid",
        "Temperature scan repeated across rotation shifts of both signs.",
        SweepSpec(
            SweepAxis("barnett_shift", -0.3 * _W_B1, 0.3 * _W_B1, 7),
            SweepAxis("temperature", 0.0, 1.0, 31),
            fixed=dict(_FB),
            measures=("entanglement",),
        ),
    )
    add(
        "contrast-detuning",
        "Nonreciprocity contrast of every pair along the magnon detuning, reflectivity 0.6.",
        SweepSpec(
            SweepAxis("delta_m_tilde", -2.0 * _W_B1, 0.0, 41),
            fixed={"reflectivity": 0.6, "theta": math.pi, **_BE},
            measures=("entanglement",),
            nonreciprocity=True,
        ),
    )
    add(
        "contrast-detuning-high-reflectivity",
        "Contrast along the magnon detuning at reflectivity 0.9.",
        SweepSpec(
            SweepAxis("delta_m_tilde", -2.0 * _W_B1, 0.0, 41),
            fixed={**_FB, **_BE},
            measures=("entanglement",),
            nonreciprocity=True,
        ),
    )
    add(
        "contrast-temperature",
        "Contrast of every pair against temperature at reflectivity 0.9.",
        SweepSpec(
            SweepAxis("temperature", 0.0, 1.0, 41),
            fixed={**_FB, **_BE},
            measures=("entanglement",),
            nonreciprocity=True,
        ),
    )
    add(
        "contrast-tripartite-temperature",
        "Tripartite contrast against temperature without feedback.",
        SweepSpec(
            SweepAxis("temperature", 0.0, 1.0, 41),
            fixed=dict(_BE),
            measures=("entanglement", "contangle"),
            nonreciprocity=True,
        ),
    )
    add(
        "contrast-tripartite-temperature-fb",
        "Tripartite contrast against temperature with a weak loop (0.1).",
        SweepSpec(
            SweepAxis("temperature", 0.0, 1.0, 41),
            fixed={"reflectivity": 0.1, "theta": math.pi, **_BE},
            measures=("entanglement", "contangle"),
            nonreciprocity=True,
        ),
    )
    return presets


PRESETS = _build_presets()


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(f"unknown preset {name!r}; available: {known}") from None
