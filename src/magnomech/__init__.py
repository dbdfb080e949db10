"""Steady-state quantum correlations of a feedback-assisted opto-magnomechanical model.

The package builds the linearized drift and diffusion matrices of a
five-mode system (two mechanical modes, a magnon, an optical and a
microwave cavity mode), gates on dynamical stability, solves the
steady-state Lyapunov equation, and evaluates Gaussian entanglement,
steering, tripartite and nonreciprocity measures over parameter sweeps.
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    MagnomechError,
    PhysicalityError,
    SingularPointError,
    SolverError,
    StabilityError,
)
from .lyapunov import (
    StabilityResult,
    integrate_lyapunov,
    solve_lyapunov,
    solve_lyapunov_oracle,
    stability_check,
)
from .measures import (
    ALL_PAIRS,
    DEFAULT_TRIPLES,
    INDIRECT_PAIRS,
    MeasureReport,
    contrast_ratio,
    effective_phonon_number,
    evaluate_measures,
    gaussian_steering,
    is_physical,
    log_negativity,
    reduce_modes,
    residual_contangle,
    symplectic_eigenvalues,
    tmsv_covariance,
)
from .meanfield import (
    SteadyAmplitudes,
    amplitudes_once,
    approx_amplitudes,
    solve_self_consistent,
)
from .model import (
    MODE_INDEX,
    MODE_ORDER,
    build_diffusion,
    build_drift,
    drive_conversions,
    thermal_occupancy,
)
from .params import (
    BASELINE_CONFIG,
    DriveParams,
    SystemParams,
    load_config,
    parse_config,
    resolve_drive_params,
    resolve_system_params,
)
from .presets import PRESETS, get_preset
from .sweep import (
    ResultTable,
    SweepAxis,
    SweepSpec,
    emit,
    evaluate_point,
    resolve_point,
    run_point,
    run_sweep,
    sweep_spec_from_config,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_PAIRS",
    "BASELINE_CONFIG",
    "ConfigError",
    "ConvergenceError",
    "DEFAULT_TRIPLES",
    "DomainError",
    "DriveParams",
    "INDIRECT_PAIRS",
    "MODE_INDEX",
    "MODE_ORDER",
    "MagnomechError",
    "MeasureReport",
    "PRESETS",
    "PhysicalityError",
    "ResultTable",
    "SingularPointError",
    "SolverError",
    "StabilityError",
    "StabilityResult",
    "SteadyAmplitudes",
    "SweepAxis",
    "SweepSpec",
    "SystemParams",
    "amplitudes_once",
    "approx_amplitudes",
    "build_diffusion",
    "build_drift",
    "contrast_ratio",
    "drive_conversions",
    "effective_phonon_number",
    "emit",
    "evaluate_measures",
    "evaluate_point",
    "gaussian_steering",
    "get_preset",
    "integrate_lyapunov",
    "is_physical",
    "load_config",
    "log_negativity",
    "parse_config",
    "reduce_modes",
    "residual_contangle",
    "resolve_drive_params",
    "resolve_point",
    "resolve_system_params",
    "run_point",
    "run_sweep",
    "solve_lyapunov",
    "solve_lyapunov_oracle",
    "solve_self_consistent",
    "stability_check",
    "sweep_spec_from_config",
    "symplectic_eigenvalues",
    "thermal_occupancy",
    "tmsv_covariance",
]
