"""Exception types shared across the package, and the tolerance check."""

import math


class TblimError(Exception):
    """Base class for all package-specific errors."""


class DomainError(TblimError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class BasisMismatchError(TblimError, ValueError):
    """Arithmetic attempted between objects tagged with different bases."""


class PoleError(TblimError, ZeroDivisionError):
    """A trigonometric denominator vanished (or nearly vanished).

    ``factor`` names the offending expression so callers can report which
    denominator collapsed.
    """

    def __init__(self, factor, value=None):
        self.factor = factor
        self.value = value
        msg = f"pole: {factor} vanishes"
        if value is not None:
            msg += f" (|value| = {abs(value):.3e})"
        super().__init__(msg)


class DegeneracyError(TblimError, ArithmeticError):
    """A construction that requires simple spectra or nonzero recurrence
    coefficients hit a degenerate configuration."""


class ConvergenceError(TblimError, RuntimeError):
    """An iterative solver exhausted its iteration budget."""


class SupportError(DomainError):
    """A signal violates a required support constraint."""


def check_tolerance(tol):
    """``tol`` itself if it is None (the default) or a finite float >= 0, a
    DomainError otherwise: a NaN would make every comparison against it
    false, so it would reject nothing."""
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        raise DomainError(f"expected a finite tolerance >= 0, got {tol!r}")
    return tol
