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

What the engine takes from scipy is declared here too, so that importing the
package imports neither ``scipy.constants`` nor ``scipy.linalg``: the physical
constants as literals, and scipy's compiled LAPACK wrappers (:data:`FLAPACK`).
"""

from __future__ import annotations

import cmath
import importlib.util
import math
import numbers
import os
import sys
import sysconfig
from collections.abc import Mapping
from dataclasses import dataclass, field, fields

import numpy as np
import scipy

from .errors import ConfigError, DomainError, SolverError

TWO_PI = 2.0 * math.pi

# The CODATA 2022 constants the model uses, written as scipy.constants (1.17.1) gives
# them, so that importing the package does not import scipy.constants; a test holds
# each equal to scipy's.
HBAR = 1.0545718176461565e-34  # reduced Planck constant, J s
K_B = 1.380649e-23  # Boltzmann constant, J/K
MU_0 = 1.25663706127e-06  # vacuum permeability, N/A^2
SPEED_OF_LIGHT = 299792458.0  # m/s


def _load_flapack():
    """scipy's compiled LAPACK wrappers, the module ``scipy.linalg._flapack``, loaded
    without the rest of ``scipy.linalg``.

    Importing ``scipy.linalg`` costs about 0.2 s (its array-API layer imports
    ``numpy.f2py`` and ``numpy.testing``); the extension and the top-level ``scipy``
    package, whose ``_distributor_init`` sets up the bundled OpenBLAS, cost about
    10 ms.  The steps are importlib's own, under the module's qualified name: an
    entry already in ``sys.modules`` is reused, else the module is created, registered
    and executed.  Either way the routines are the objects that
    ``scipy.linalg.get_lapack_funcs`` returns, in whichever order the two are imported.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        path = os.path.join(os.path.dirname(scipy.__file__), "linalg",
                            "_flapack" + sysconfig.get_config_var("EXT_SUFFIX"))
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)  # a missing file: an ImportError naming it
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


#: The LAPACK routines of the engine: ``dgees`` and ``dtrsyl`` (``lyapunov``),
#: ``dpotrf`` and ``dgesdd`` (``measures``).
FLAPACK = _load_flapack()


def _key(unit: str, baseline: float | None = None, **field_args):
    """A config key: its unit tag, spelled as its sweep-column suffix (``hz``,
    ``K``, ``rad``, ``m``, ``W`` or empty), and for system keys its
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

    However it is built (``dataclasses.replace`` too), every field passes
    :func:`finite_number`, is stored as a float and meets the domain checks
    below (``omega_c`` must not overflow), else a :class:`DomainError` names it.

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
        _require_real_fields(self)
        for name in ("omega_a", "omega_m", "omega_b1", "omega_b2", "gamma_a", "gamma_m",
                     "gamma_c", "gamma_b1", "gamma_b2", "lambda_c"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be > 0, got {getattr(self, name)!r}")
        if self.temperature < 0:
            raise DomainError(f"temperature must be >= 0, got {self.temperature!r}")
        if not 0.0 <= self.reflectivity < 1.0:
            raise DomainError(f"reflectivity must lie in [0, 1), got {self.reflectivity!r}")
        if self.omega_c == math.inf:
            raise DomainError(f"lambda_c {self.lambda_c!r} m is too small: "
                              f"omega_c = 2*pi*c/lambda_c overflows")

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


#: Per drive amplitude of :class:`DriveParams`, the fields its conversion reads, the power first.
DRIVE_SOURCES = {"rabi": ("drive_power", "sphere_radius", "spin_count", "gyromagnetic_ratio"),
                 "laser_coupling": ("laser_power", "drive_freq_2")}


@dataclass(frozen=True)
class DriveParams:
    """Drive-side quantities used to derive the effective couplings.

    ``rabi`` and ``laser_coupling`` are the magnon and optical drive amplitudes (rad/s).
    Each has one source (:data:`DRIVE_SOURCES`): itself nonzero, or all the fields its
    conversion reads nonzero, or none; any other block, or a negative power, ``spin_count``,
    ``sphere_radius`` or ``drive_freq_2``, is a :class:`DomainError` that names the fields.
    ``gyromagnetic_ratio`` is in rad/s per tesla; fields are checked as in :class:`SystemParams`.
    """

    rabi: float = _key("hz", default=0.0)
    laser_coupling: float = _key("hz", default=0.0)
    bare_D_mb1: float = _key("hz", default=0.0)
    bare_D_cb2: float = _key("hz", default=0.0)
    spin_count: float = _key("", default=0.0)
    gyromagnetic_ratio: float = _key("hz", default=0.0)
    drive_power: float = _key("W", default=0.0)
    laser_power: float = _key("W", default=0.0)
    sphere_radius: float = _key("m", default=0.0)
    drive_freq_2: float = _key("hz", default=0.0)

    def __post_init__(self):
        _require_real_fields(self)
        for name in ("drive_power", "laser_power", "spin_count", "sphere_radius", "drive_freq_2"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        for amplitude, conversion in DRIVE_SOURCES.items():
            given = [name for name in (amplitude, *conversion) if getattr(self, name)]
            if given and given != [amplitude] and given != list(conversion):
                raise DomainError(f"{amplitude} needs one source: itself, or {', '.join(conversion)} "
                                  f"all nonzero; got {', '.join(given)} nonzero")


def _require_real_fields(params) -> None:
    """The one field rule of both parameter types: every field of ``params`` through
    :func:`finite_number` (unit-free, so nothing is rescaled), stored as its float."""
    for name, value in vars(params).items():
        # finite_number returns a finite float unchanged, and calling it on
        # every field regardless doubles the cost of building a SystemParams
        if type(value) is float and math.isfinite(value):
            continue
        number = finite_number(value, "")
        if number is None:
            raise DomainError(f"{name} must be a finite real number, got {value!r}")
        object.__setattr__(params, name, number)  # replaces a value, so the iteration holds


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


def require_mapping(config, what: str) -> None:
    """Raise ConfigError unless ``config`` is a mapping of config keys to values."""
    # dict comes before the ABC, whose isinstance check is slow
    if not isinstance(config, (dict, Mapping)):
        raise ConfigError(f"{what} must be a mapping of keys to values, got {config!r}")


def real_matrix(value, need: str, dims=None) -> np.ndarray:
    """The one matrix rule: ``value`` as a float array, or a :class:`DomainError` saying
    ``need`` unless it is a real (bool, int or float dtype), non-empty, square 2-D array
    (a ragged nested list is none) whose dimension is in ``dims`` (any, when None), and a
    :class:`SolverError` saying ``need`` if an entry is not finite."""
    try:
        matrix = np.asarray(value)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise DomainError(f"{need}, got a ragged nested sequence") from None
    if (matrix.dtype.kind not in "biuf" or matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]
            or not matrix.size or dims is not None and len(matrix) not in dims):
        raise DomainError(f"{need}, got {matrix.dtype} shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise SolverError(f"{need}, got a non-finite entry")
    return matrix.astype(float, copy=False)


def _validated(config: dict, units: dict, what: str) -> dict:
    """Check keys and values of a config mapping and convert ``hz`` keys to rad/s."""
    require_mapping(config, f"a {what} config")
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
    """Read and parse a UTF-8 configuration file, a byte-order mark skipped; errors name the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    try:
        return parse_config(text.removeprefix("\ufeff"))  # not utf-8-sig: the byte above counts a mark
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
