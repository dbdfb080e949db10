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

import cmath
import math
import numbers
from dataclasses import dataclass, field, fields

from scipy.constants import c as SPEED_OF_LIGHT

from .errors import ConfigError, DomainError

TWO_PI = 2.0 * math.pi


def _key(unit: str, baseline: float | None = None, **field_args):
    """A config key: its unit tag, spelled as its sweep-column suffix (``hz``,
    ``K``, ``rad``, ``m``, ``T``, ``W`` or empty), and for system keys its
    baseline value in file units."""
    return field(metadata={"unit": unit, "baseline": baseline}, **field_args)


@dataclass(frozen=True)
class SystemParams:
    """All physical parameters of the five-mode model, in angular units.

    Frequencies, damping rates, couplings, detunings and the rotation-induced
    magnon shift are in rad/s; ``reflectivity`` is the beam-splitter
    reflectivity in [0, 1); ``theta`` the feedback phase in radians;
    ``temperature`` the bath temperature in K; ``lambda_c`` the optical
    resonance wavelength in metres.

    The baselines form the operating point used throughout: both
    electromagnetic modes at 10 GHz, mechanical modes near 20 MHz,
    effective couplings quoted directly, magnon drive at delta_m_tilde =
    -omega_b1 and optical drive at delta_c_tilde = +omega_b2.  ``delta_a``
    has none: it defaults to delta_m_tilde (the degenerate magnon and
    microwave resonances share the drive tone, so their detunings track).
    """

    omega_a: float = _key("hz", 10e9)
    omega_m: float = _key("hz", 10e9)
    omega_b1: float = _key("hz", 20.15e6)
    omega_b2: float = _key("hz", 20.11e6)
    gamma_a: float = _key("hz", 1e6)
    gamma_m: float = _key("hz", 1e6)
    gamma_c: float = _key("hz", 1e6)
    gamma_b1: float = _key("hz", 100.0)
    gamma_b2: float = _key("hz", 100.0)
    D_ma: float = _key("hz", 1.5e6)
    D_b1b2: float = _key("hz", 2.4e6)
    G_m: float = _key("hz", 0.7e6)
    G_c: float = _key("hz", 2.7e6)
    delta_m_tilde: float = _key("hz", -20.15e6)
    delta_c_tilde: float = _key("hz", 20.11e6)
    delta_a: float = _key("hz")
    barnett_shift: float = _key("hz", 0.0)
    reflectivity: float = _key("", 0.0)
    theta: float = _key("rad", 0.0)
    temperature: float = _key("K", 0.010)
    lambda_c: float = _key("m", 1550e-9)

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
    def gamma_c_fb(self) -> float:
        """Feedback-modified optical damping gamma_c*(1 - 2*L*cos(theta)); a
        negative value is left for the stability gate to judge."""
        return self.gamma_c * (1.0 - 2.0 * self.reflectivity * math.cos(self.theta))

    @property
    def fb_shift(self) -> float:
        """Feedback shift of the optical detuning, 2*gamma_c*L*sin(theta)."""
        return 2.0 * self.gamma_c * self.reflectivity * math.sin(self.theta)

    @property
    def fb_noise_factor(self) -> float:
        """Feedback scale of the optical input noise, psi^2*|1 - L*exp(i*theta)|^2."""
        loop = 1.0 - self.reflectivity * cmath.exp(1j * self.theta)
        return self.psi_sq * (loop.real**2 + loop.imag**2)

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
    ``gyromagnetic_ratio`` is in rad/s per tesla.
    """

    rabi: float = _key("hz", default=0.0)
    laser_coupling: float = _key("hz", default=0.0)
    bare_D_mb1: float = _key("hz", default=0.0)
    bare_D_cb2: float = _key("hz", default=0.0)
    spin_count: float = _key("", default=0.0)
    gyromagnetic_ratio: float = _key("hz", default=0.0)
    drive_field: float = _key("T", default=0.0)
    drive_power: float = _key("W", default=0.0)
    laser_power: float = _key("W", default=0.0)
    sphere_radius: float = _key("m", default=0.0)
    drive_freq_2: float = _key("hz", default=0.0)

    def __post_init__(self):
        for name in ("drive_power", "laser_power", "spin_count"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be >= 0")


#: Config keys of :class:`SystemParams` and :class:`DriveParams`: name -> unit tag.
SYSTEM_KEYS = {f.name: f.metadata["unit"] for f in fields(SystemParams)}
DRIVE_KEYS = {f.name: f.metadata["unit"] for f in fields(DriveParams)}

#: The baseline operating point in file units; every key but ``delta_a``.
BASELINE_CONFIG = {f.name: f.metadata["baseline"] for f in fields(SystemParams)
                   if f.metadata["baseline"] is not None}


def finite_number(value, unit: str) -> float | None:
    """The one numeric rule for config values and sweep bounds.

    Returns ``value`` as a float in internal units (an ``hz`` value times
    2pi), or None unless it is a real number (numpy scalars included) that
    is not a bool and is finite after that conversion.
    """
    # float and int come before the ABC, whose isinstance check is slow
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        return None
    try:
        number = TWO_PI * float(value) if unit == "hz" else float(value)
    except OverflowError:  # an int beyond the float range
        return None
    return number if math.isfinite(number) else None


def _validated(config: dict, units: dict, what: str) -> dict:
    """Check keys and values of a config mapping and convert ``hz`` keys to rad/s."""
    out = {}
    for key, value in config.items():
        if key not in units:
            raise ConfigError(f"unknown {what} {key!r}")
        number = finite_number(value, units[key])
        if number is None:
            raise ConfigError(f"{what} {key!r} must be a finite number, got {value!r}")
        out[key] = number
    return out


_BASELINE_PARAMS = _validated(BASELINE_CONFIG, SYSTEM_KEYS, "parameter")


def resolve_system_params(config: dict[str, float]) -> SystemParams:
    """Build :class:`SystemParams` from a config-convention mapping.

    ``config`` holds values in file units (Hz for frequency-like keys);
    missing keys fall back to the baseline.  ``delta_a`` defaults to
    ``delta_m_tilde`` when not given explicitly.
    """
    kwargs = {**_BASELINE_PARAMS, **_validated(config, SYSTEM_KEYS, "parameter")}
    kwargs.setdefault("delta_a", kwargs["delta_m_tilde"])
    return SystemParams(**kwargs)


def resolve_drive_params(config: dict[str, float]) -> DriveParams:
    """Build :class:`DriveParams` from a config-convention mapping."""
    return DriveParams(**_validated(config, DRIVE_KEYS, "drive parameter"))


def echo_config(params) -> dict:
    """A :class:`SystemParams` or :class:`DriveParams` back in file units."""
    return {f.name: getattr(params, f.name) / TWO_PI if f.metadata["unit"] == "hz"
            else getattr(params, f.name) for f in fields(params)}


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
