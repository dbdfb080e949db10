"""Exception types shared across the package, and the floating-point guard."""

import numpy as np


class MagnomechError(Exception):
    """Base class for all package-specific errors; ``reason`` is the row code of a point that raises one."""

    reason = "nonphysical"


class DomainError(MagnomechError, ValueError):
    """An argument lies outside the physically allowed domain."""


class ConfigError(MagnomechError, ValueError):
    """A configuration file or sweep specification is invalid."""


class StabilityError(MagnomechError):
    """An operation requiring a stable drift matrix was called on an unstable one."""

    reason = "unstable"


class SingularPointError(MagnomechError):
    """A closed-form steady-state expression has a vanishing denominator.

    The message names the expression whose denominator vanished.
    """

    reason = "singular"


class SolverError(MagnomechError):
    """A numerical solve finished but failed its verification contract."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ConvergenceError(SolverError):
    """The self-consistent mean-field iteration did not converge."""

    reason = "singular"


class FloatGuard(np.errstate):
    """``with FloatGuard("mean-field solve"):`` turns a floating-point overflow or invalid
    operation in its block, numpy's or Python's (any ``ArithmeticError``, a float division
    by zero included), into a :class:`SolverError` that names the computation and the
    exception type."""

    def __init__(self, computation: str):
        super().__init__(over="raise", invalid="raise")
        self.computation = computation

    def __exit__(self, exc_type, exc, tb):
        super().__exit__(exc_type, exc, tb)
        if isinstance(exc, ArithmeticError):
            raise SolverError(f"floating-point failure in the {self.computation}: "
                              f"{type(exc).__name__}: {exc}") from exc


class PhysicalityError(MagnomechError):
    """A covariance matrix violates a physicality condition.

    The message names the violated condition.
    """
