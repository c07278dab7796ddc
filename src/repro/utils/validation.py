"""Argument-validation helpers with consistent error messages."""

from __future__ import annotations

import math
import numbers


def check_fraction(value: float, name: str) -> float:
    """Validate that ``value`` is a real number in [0, 1] (``bool`` is not
    a number here, and NaN fails the range test)."""
    if (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and 0.0 <= value <= 1.0
    ):
        return value
    raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")


def check_positive(value, name: str):
    """Validate that ``value`` is strictly positive."""
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return value


def check_positive_int(value, name: str) -> int:
    """Validate that ``value`` is an int >= 1 (``bool`` is not)."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1:
        return value
    raise ValueError(f"{name} must be an int >= 1, got {value!r}")


def check_non_negative(value, name: str):
    """Validate that ``value`` is a finite real number >= 0 (``bool`` is
    not a number here; NaN passes every ``< 0`` test, so it is refused
    by name, as is inf)."""
    if (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value >= 0
    ):
        return value
    raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")


def check_in_choices(value, name: str, choices):
    """Validate that ``value`` is one of ``choices``."""
    if value not in choices:
        raise ValueError(f"{name} must be one of {sorted(choices)!r}, got {value!r}")
    return value
