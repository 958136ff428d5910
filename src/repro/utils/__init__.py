"""Small shared helpers: validation, formatting, unit handling."""

from repro.utils.formatting import (
    format_area,
    format_engineering,
    format_joules,
    format_ratio,
    format_seconds,
    render_ascii_table,
)
from repro.utils.validation import (
    check_non_negative_int,
    check_positive_float,
    check_positive_int,
    check_probability,
)

__all__ = [
    "check_positive_int",
    "check_non_negative_int",
    "check_positive_float",
    "check_probability",
    "format_engineering",
    "format_seconds",
    "format_joules",
    "format_area",
    "format_ratio",
    "render_ascii_table",
]
