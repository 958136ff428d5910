"""Argument validation helpers used across the library.

Each helper raises :class:`repro.errors.ParameterError` with a message that
names the offending parameter, so call sites stay one-liners.
"""

from __future__ import annotations

from repro.errors import ParameterError


def check_positive_int(value: int, name: str) -> int:
    """Return ``value`` if it is an integer >= 1, else raise."""
    if not isinstance(value, (int,)) or isinstance(value, bool):
        raise ParameterError(f"{name} must be an int, got {type(value).__name__}")
    if value < 1:
        raise ParameterError(f"{name} must be >= 1, got {value}")
    return value


def check_non_negative_int(value: int, name: str) -> int:
    """Return ``value`` if it is an integer >= 0, else raise."""
    if not isinstance(value, (int,)) or isinstance(value, bool):
        raise ParameterError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ParameterError(f"{name} must be >= 0, got {value}")
    return value


def check_positive_float(value: float, name: str) -> float:
    """Return ``value`` as float if it is finite and > 0, else raise."""
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{name} must be a number, got {value!r}") from exc
    if not out > 0.0 or out != out or out in (float("inf"),):
        raise ParameterError(f"{name} must be a finite positive number, got {value!r}")
    return out


def check_probability(value: float, name: str) -> float:
    """Return ``value`` as float if it lies in [0, 1], else raise."""
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{name} must be a number, got {value!r}") from exc
    if not 0.0 <= out <= 1.0:
        raise ParameterError(f"{name} must lie in [0, 1], got {value!r}")
    return out
