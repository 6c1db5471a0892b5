"""Exception types shared across the toolkit, and the integer, real and key-set checks."""
import math
import numbers

import numpy as np


class ParameterError(ValueError):
    """An argument violates a documented precondition (bad shape, range, or combination)."""


class DegenerateInputError(ValueError):
    """Structurally valid input with no usable content (all-zero signal, empty class, ...)."""


def check_int(name: str, value, low: int) -> None:
    """Raise ParameterError unless value is an integer (never a bool) >= low."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ParameterError(f"{name} must be >= {low}, got {value}")


def is_real(value) -> bool:
    """Whether value is a real number (never a bool) that is a finite float."""
    try:
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


def check_real(name: str, value, zero: bool = False) -> None:
    """Raise ParameterError unless value is a finite real number (never a bool)
    above zero, or at zero when ``zero``."""
    if not (is_real(value) and (value > 0 or zero and value == 0)):
        raise ParameterError(f"{name} must be {'>= 0' if zero else 'positive'} and finite, got {value!r}")


def check_keys(what: str, stored, expected) -> None:
    """Raise ParameterError naming missing and extra keys unless stored has expected's."""
    missing, extra = set(expected) - set(stored), set(stored) - set(expected)
    if missing or extra:
        raise ParameterError(f"{what} mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
