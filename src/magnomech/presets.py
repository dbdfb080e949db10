"""Shipped sweep presets covering the standard operating regimes.

Each preset is the flat sweep configuration a ``.cfg`` file holds, read by
``sweep_spec_from_config``, as ``magnomech sweep --config`` reads a file.

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
from .sweep import SweepSpec, sweep_spec_from_config

_W_B1 = BASELINE_CONFIG["omega_b1"]  # Hz, config convention
_W_B2 = BASELINE_CONFIG["omega_b2"]

# Shared pieces: two planes, contrast detuning axis, loop at theta = pi, rotation shift, temperature scan.
_DETUNING_PLANE = {
    "axis1": "delta_m_tilde", "axis1_start": -2.0 * _W_B1, "axis1_stop": 0.0, "axis1_count": 33,
    "axis2": "delta_c_tilde", "axis2_start": 0.0, "axis2_stop": 2.0 * _W_B2, "axis2_count": 33,
}
_COUPLING_PLANE = {
    "axis1": "D_ma", "axis1_start": 0.0, "axis1_stop": 3.0e6, "axis1_count": 33,
    "axis2": "D_b1b2", "axis2_start": 0.0, "axis2_stop": 3.0e6, "axis2_count": 33,
}
_CONTRAST_DETUNING = {"axis1": "delta_m_tilde", "axis1_start": -2.0 * _W_B1, "axis1_stop": 0.0,
                      "axis1_count": 41}
_FB = {"reflectivity": 0.9, "theta": math.pi}
_BE = {"barnett_shift": 0.2 * _W_B1}
_TEMPERATURE = {"axis1": "temperature", "axis1_start": 0.0, "axis1_stop": 1.0, "axis1_count": 41}


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    spec: SweepSpec


#: Each preset's description and flat sweep configuration, in listing order.
_CONFIGS = {
    "detuning-grid": (
        "Pairwise entanglement and steering over the magnon/optical detuning plane, no feedback, "
        "non-rotating sphere.",
        {**_DETUNING_PLANE, "measures": "entanglement,steering"}),
    "detuning-grid-fb": (
        "Detuning plane with the feedback loop at reflectivity 0.9.",
        {**_DETUNING_PLANE, **_FB, "measures": "entanglement,steering"}),
    "detuning-grid-fb-be": (
        "Detuning plane with feedback and a +0.2*omega_b1 rotation shift.",
        {**_DETUNING_PLANE, **_FB, **_BE, "measures": "entanglement,steering"}),
    "phase-reflectivity-grid": (
        "Feedback phase versus reflectivity at the standard operating detunings.",
        {"axis1": "theta", "axis1_start": -math.pi, "axis1_stop": math.pi, "axis1_count": 33,
         "axis2": "reflectivity", "axis2_start": 0.0, "axis2_stop": 0.95, "axis2_count": 33,
         **_BE, "measures": "entanglement,steering"}),
    "coupling-grid": (
        "Magnon-microwave versus phonon-phonon coupling plane, no feedback.",
        {**_COUPLING_PLANE, "measures": "entanglement,steering"}),
    "coupling-grid-fb-be": (
        "Coupling plane with feedback (0.9) and the rotation shift.",
        {**_COUPLING_PLANE, **_FB, **_BE, "measures": "entanglement,steering"}),
    "temperature-baseline": (
        "All measures against bath temperature, no feedback, non-rotating.",
        {"axis1": "temperature", "axis1_start": 0.0, "axis1_stop": 0.5, "axis1_count": 41}),
    "temperature-fb": (
        "Temperature scan with the feedback loop at reflectivity 0.9.",
        {**_TEMPERATURE, **_FB}),
    "temperature-fb-be": (
        "Temperature scan with feedback and the rotation shift.",
        {**_TEMPERATURE, **_FB, **_BE}),
    "barnett-temperature-grid": (
        "Temperature scan repeated across rotation shifts of both signs.",
        {"axis1": "barnett_shift", "axis1_start": -0.3 * _W_B1, "axis1_stop": 0.3 * _W_B1,
         "axis1_count": 7,
         "axis2": "temperature", "axis2_start": 0.0, "axis2_stop": 1.0, "axis2_count": 31,
         **_FB, "measures": "entanglement"}),
    "contrast-detuning": (
        "Nonreciprocity contrast of every pair along the magnon detuning, reflectivity 0.6.",
        {**_CONTRAST_DETUNING, **_FB, "reflectivity": 0.6, **_BE,
         "measures": "entanglement", "nonreciprocity": True}),
    "contrast-detuning-high-reflectivity": (
        "Contrast along the magnon detuning at reflectivity 0.9.",
        {**_CONTRAST_DETUNING, **_FB, **_BE, "measures": "entanglement", "nonreciprocity": True}),
    "contrast-temperature": (
        "Contrast of every pair against temperature at reflectivity 0.9.",
        {**_TEMPERATURE, **_FB, **_BE, "measures": "entanglement", "nonreciprocity": True}),
    "contrast-tripartite-temperature": (
        "Tripartite contrast against temperature without feedback.",
        {**_TEMPERATURE, **_BE, "measures": "entanglement,contangle", "nonreciprocity": True}),
    "contrast-tripartite-temperature-fb": (
        "Tripartite contrast against temperature with a weak loop (0.1).",
        {**_TEMPERATURE, **_FB, "reflectivity": 0.1, **_BE,
         "measures": "entanglement,contangle", "nonreciprocity": True}),
}

PRESETS = {name: Preset(name, description, sweep_spec_from_config(config))
           for name, (description, config) in _CONFIGS.items()}


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(f"unknown preset {name!r}; available: {known}") from None
