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
from .measures import MeasureReport, evaluate_measures, tmsv_covariance
from .meanfield import solve_self_consistent
from .model import build_diffusion, build_drift
from .params import (
    BASELINE_CONFIG,
    DriveParams,
    SystemParams,
    load_config,
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
    "BASELINE_CONFIG",
    "ConfigError",
    "ConvergenceError",
    "DomainError",
    "DriveParams",
    "MagnomechError",
    "MeasureReport",
    "PRESETS",
    "PhysicalityError",
    "ResultTable",
    "SingularPointError",
    "SolverError",
    "StabilityError",
    "StabilityResult",
    "SweepAxis",
    "SweepSpec",
    "SystemParams",
    "build_diffusion",
    "build_drift",
    "emit",
    "evaluate_measures",
    "evaluate_point",
    "get_preset",
    "integrate_lyapunov",
    "load_config",
    "resolve_point",
    "resolve_system_params",
    "run_point",
    "run_sweep",
    "solve_lyapunov",
    "solve_lyapunov_oracle",
    "solve_self_consistent",
    "stability_check",
    "sweep_spec_from_config",
    "tmsv_covariance",
]
