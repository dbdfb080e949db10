"""Physical parameters and the flat key/value configuration format.

All frequencies, damping rates, couplings and detunings are stored
internally as angular quantities (rad/s).  Configuration files and sweep
axes use the laboratory convention instead: a key tagged ``hz`` below is
given as value/2pi in Hz and is multiplied by 2pi on load.  This keeps
config files aligned with how such parameters are quoted on data sheets
while removing the recurring 2pi bug class from the numerics.

A configuration file is a flat list of ``key = value`` lines; ``#``
starts a comment.  Unknown keys are rejected at parse time.  Every
parameter key is optional and defaults to the ``baseline`` operating
point (see :data:`BASELINE_CONFIG`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.constants import c as SPEED_OF_LIGHT

from .errors import ConfigError, DomainError

TWO_PI = 2.0 * math.pi

# Configuration keys for SystemParams: name -> unit tag.
# "hz"   value/2pi in Hz, converted to rad/s on load
# "k"    kelvin, "m" metres, "rad" radians, "1" dimensionless
SYSTEM_KEYS = {
    "omega_a": "hz",
    "omega_m": "hz",
    "omega_b1": "hz",
    "omega_b2": "hz",
    "gamma_a": "hz",
    "gamma_m": "hz",
    "gamma_c": "hz",
    "gamma_b1": "hz",
    "gamma_b2": "hz",
    "D_ma": "hz",
    "D_b1b2": "hz",
    "G_m": "hz",
    "G_c": "hz",
    "delta_m_tilde": "hz",
    "delta_c_tilde": "hz",
    "delta_a": "hz",
    "barnett_shift": "hz",
    "reflectivity": "1",
    "theta": "rad",
    "temperature": "k",
    "lambda_c": "m",
}

DRIVE_KEYS = {
    "rabi": "hz",
    "laser_coupling": "hz",
    "bare_D_mb1": "hz",
    "bare_D_cb2": "hz",
    "spin_count": "1",
    "gyromagnetic_ratio": "hz",  # per tesla
    "drive_field": "t",
    "drive_power": "w",
    "laser_power": "w",
    "sphere_radius": "m",
    "drive_freq_1": "hz",
    "drive_freq_2": "hz",
}

# Operating point used throughout: both electromagnetic modes at 10 GHz,
# near-degenerate mechanical modes around 20 MHz, effective couplings
# quoted directly, magnon drive red-detuned (delta_m_tilde = -omega_b1)
# and optical drive at delta_c_tilde = +omega_b2.  delta_a is absent:
# it defaults to delta_m_tilde (the magnon and microwave resonances are
# degenerate and share the drive tone, so their detunings track).
BASELINE_CONFIG = {
    "omega_a": 10e9,
    "omega_m": 10e9,
    "omega_b1": 20.15e6,
    "omega_b2": 20.11e6,
    "gamma_a": 1e6,
    "gamma_m": 1e6,
    "gamma_c": 1e6,
    "gamma_b1": 100.0,
    "gamma_b2": 100.0,
    "D_ma": 1.5e6,
    "D_b1b2": 2.4e6,
    "G_m": 0.7e6,
    "G_c": 2.7e6,
    "delta_m_tilde": -20.15e6,
    "delta_c_tilde": 20.11e6,
    "barnett_shift": 0.0,
    "reflectivity": 0.0,
    "theta": 0.0,
    "temperature": 0.010,
    "lambda_c": 1550e-9,
}


@dataclass(frozen=True)
class SystemParams:
    """All physical parameters of the five-mode model, in angular units.

    Frequencies, damping rates, couplings, detunings and the rotation-induced
    magnon shift are in rad/s; ``reflectivity`` is the beam-splitter
    reflectivity in [0, 1); ``theta`` the feedback phase in radians;
    ``temperature`` the bath temperature in K; ``lambda_c`` the optical
    resonance wavelength in metres.
    """

    omega_a: float
    omega_m: float
    omega_b1: float
    omega_b2: float
    gamma_a: float
    gamma_m: float
    gamma_c: float
    gamma_b1: float
    gamma_b2: float
    D_ma: float
    D_b1b2: float
    G_m: float
    G_c: float
    delta_m_tilde: float
    delta_c_tilde: float
    delta_a: float
    barnett_shift: float = 0.0
    reflectivity: float = 0.0
    theta: float = 0.0
    temperature: float = 0.0
    lambda_c: float = 1550e-9

    def __post_init__(self):
        for name in ("omega_a", "omega_m", "omega_b1", "omega_b2",
                     "gamma_a", "gamma_m", "gamma_c", "gamma_b1", "gamma_b2"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be > 0")
        if self.temperature < 0:
            raise DomainError("temperature must be >= 0")
        if not 0.0 <= self.reflectivity < 1.0:
            raise DomainError("reflectivity must lie in [0, 1)")
        if self.lambda_c <= 0:
            raise DomainError("lambda_c must be > 0")

    @property
    def psi_sq(self) -> float:
        """Squared beam-splitter transmissivity, 1 - reflectivity**2."""
        return 1.0 - self.reflectivity**2

    @property
    def psi(self) -> float:
        """Beam-splitter transmissivity."""
        return math.sqrt(self.psi_sq)

    @property
    def omega_c(self) -> float:
        """Optical resonance angular frequency fixed by lambda_c (rad/s)."""
        return TWO_PI * SPEED_OF_LIGHT / self.lambda_c


@dataclass(frozen=True)
class DriveParams:
    """Drive-side quantities used to derive the effective couplings.

    ``rabi`` and ``laser_coupling`` are the magnon and optical drive
    amplitudes (rad/s); either may be supplied directly or derived from
    the laboratory quantities below via :func:`magnomech.model.drive_conversions`.
    """

    rabi: float = 0.0
    laser_coupling: float = 0.0
    bare_D_mb1: float = 0.0
    bare_D_cb2: float = 0.0
    spin_count: float = 0.0
    gyromagnetic_ratio: float = 0.0
    drive_field: float = 0.0
    drive_power: float = 0.0
    laser_power: float = 0.0
    sphere_radius: float = 0.0
    drive_freq_1: float = 0.0
    drive_freq_2: float = 0.0

    def __post_init__(self):
        for name in ("drive_power", "laser_power", "spin_count"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be >= 0")


def _convert(value: float, unit: str) -> float:
    if unit == "hz":
        return TWO_PI * value
    return value


def resolve_system_params(config: dict[str, float]) -> SystemParams:
    """Build :class:`SystemParams` from a config-convention mapping.

    ``config`` holds values in file units (Hz for frequency-like keys);
    missing keys fall back to the baseline.  ``delta_a`` defaults to
    ``delta_m_tilde`` when not given explicitly.
    """
    merged = dict(BASELINE_CONFIG)
    for key, value in config.items():
        if key not in SYSTEM_KEYS:
            raise ConfigError(f"unknown parameter {key!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"parameter {key!r} needs a numeric value, got {value!r}")
        if not math.isfinite(value):
            raise ConfigError(f"parameter {key!r} must be finite, got {value!r}")
        merged[key] = value
    if "delta_a" not in merged:
        merged["delta_a"] = merged["delta_m_tilde"]
    kwargs = {k: _convert(v, SYSTEM_KEYS[k]) for k, v in merged.items()}
    return SystemParams(**kwargs)


def resolve_drive_params(config: dict[str, float]) -> DriveParams:
    """Build :class:`DriveParams` from a config-convention mapping."""
    kwargs = {}
    for key, value in config.items():
        if key not in DRIVE_KEYS:
            raise ConfigError(f"unknown drive parameter {key!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"drive parameter {key!r} needs a numeric value, got {value!r}")
        if not math.isfinite(value):
            raise ConfigError(f"drive parameter {key!r} must be finite, got {value!r}")
        kwargs[key] = _convert(value, DRIVE_KEYS[key])
    return DriveParams(**kwargs)


def _parse_scalar(raw: str):
    raw = raw.strip()
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    try:
        return float(raw)
    except ValueError:
        return raw


def parse_config(text: str) -> dict:
    """Parse flat ``key = value`` configuration text into a mapping.

    Values are floats, booleans (``true``/``false``) or bare strings;
    no key interpretation happens here.  Duplicate keys are rejected.
    """
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = _parse_scalar(raw)
    return out


def load_config(path) -> dict:
    """Read and parse a configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
