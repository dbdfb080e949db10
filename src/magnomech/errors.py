"""Exception types shared across the package, and the floating-point guard."""

import numpy as np


class MagnomechError(Exception):
    """Base class for all package-specific errors."""


class DomainError(MagnomechError, ValueError):
    """An argument lies outside the physically allowed domain."""


class ConfigError(MagnomechError, ValueError):
    """A configuration file or sweep specification is invalid."""


class StabilityError(MagnomechError):
    """An operation requiring a stable drift matrix was called on an unstable one."""


class SingularPointError(MagnomechError):
    """A closed-form steady-state expression has a vanishing denominator.

    The message names the expression whose denominator vanished.
    """


class ConvergenceError(MagnomechError):
    """The self-consistent mean-field iteration did not converge."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SolverError(MagnomechError):
    """A numerical solve finished but failed its verification contract."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class FloatGuard(np.errstate):
    """``with FloatGuard():`` turns a floating-point overflow or invalid operation in
    its block, numpy's or Python's (any ``ArithmeticError``, a float division by zero
    included), into a :class:`SolverError`."""

    def __init__(self):
        super().__init__(over="raise", invalid="raise")

    def __exit__(self, exc_type, exc, tb):
        super().__exit__(exc_type, exc, tb)
        if isinstance(exc, ArithmeticError):
            raise SolverError(f"floating-point failure: {exc}") from exc


class PhysicalityError(MagnomechError):
    """A covariance matrix violates a physicality condition.

    The message names the violated condition.
    """
