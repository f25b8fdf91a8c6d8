"""Exception types shared across the package, and the checkers that hold its
one input-validation policy.

A count is an int, a numpy integer or an integral float such as 2e5; a bool
or a fractional value is refused, never truncated.  A real is a Python or
numpy number, also as a 0-d array; anything else (a bool, a string, None, a
list) is refused, never converted.  An array must hold numbers in rows of
equal length; a boolean is not a number here either.  Reals, matrices and
weight vectors must be finite.  A value out of range or of the wrong type
raises DomainError, an array of the wrong shape or of entries that are not
numbers ShapeError.
"""

import math
import numbers

import numpy as np


class ShapeError(ValueError):
    """An array argument has the wrong shape or length."""


class DomainError(ValueError):
    """A scalar argument lies outside the operation's domain."""


class BudgetError(ValueError):
    """An exhaustive enumeration would exceed its support budget."""


class ConfigError(ValueError):
    """An experiment configuration failed to parse or validate."""


class NumericalError(RuntimeError):
    """Integration produced a non-finite state.

    time holds the first grid time at which the state was non-finite,
    when known.
    """

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class InfeasibleError(RuntimeError):
    """The residual constraint cannot be met by any vector.

    min_residual holds the least-squares residual, the smallest value the
    noise radius would have to reach for the constraint set to be nonempty.
    """

    def __init__(self, message, min_residual):
        super().__init__(message)
        self.min_residual = float(min_residual)


class InfeasibleCertificate(ValueError):
    """A certificate with feasible=False was used where a feasible one is
    required.  reasons carries the violated conditions."""

    def __init__(self, message, reasons=()):
        super().__init__(message)
        self.reasons = tuple(reasons)


def check_count(value, name, low=1, high=None):
    """value as an int in [low, high] (high=None leaves it unbounded)."""
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < low or (high is not None and value > high):
        span = f"be >= {low}" if high is None else f"lie in [{low}, {high}]"
        raise DomainError(f"{name} must {span}, got {value}")
    return value


def check_real(value, name, positive=False):
    """value as a finite float, strictly positive if positive is set and
    nonnegative otherwise."""
    v = value.item() if isinstance(value, np.ndarray) and value.ndim == 0 else value
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    v = float(v)
    if not (math.isfinite(v) and (v > 0 if positive else v >= 0)):
        sign = "positive" if positive else "nonnegative"
        raise DomainError(f"{name} must be {sign} and finite, got {value!r}")
    return v


def _float_array(a, name):
    """a as a C-contiguous float array, refusing ragged rows and entries that
    are not numbers, booleans included."""
    try:
        arr = np.asarray(a)
    except ValueError as exc:
        raise ShapeError(f"{name} must be a numeric array with rows of equal length") from exc
    # numpy converts a list that mixes booleans with numbers to numbers
    if arr.dtype.kind not in "iuf" or (
        not isinstance(a, np.ndarray)
        and any(isinstance(v, (bool, np.bool_)) for v in np.asarray(a, dtype=object).flat)
    ):
        raise ShapeError(f"{name} must be a numeric array, got entries that are not numbers")
    return np.ascontiguousarray(arr, dtype=float)


def check_array(a, shape, name):
    """a as a finite, C-contiguous float array of the given shape."""
    a = _float_array(a, name)
    if a.shape != shape:
        raise ShapeError(f"{name} must have shape {shape}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{name} must be finite")
    return a


def check_matrix(A, name):
    """A as a finite, nonempty, C-contiguous 2-d float array."""
    A = _float_array(A, name)
    if A.ndim != 2 or A.size == 0:
        raise ShapeError(f"{name} must be a nonempty 2-d array, got shape {A.shape}")
    return check_array(A, A.shape, name)


def check_weights(w, shape):
    """w as a finite, strictly positive float array of the given shape."""
    w = check_array(w, shape, "weights")
    if np.any(w <= 0):
        raise DomainError("weights must be strictly positive")
    return w
