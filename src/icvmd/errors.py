"""Exception types shared across the toolkit, and the integer-field check."""
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
