"""Tests for the validation helpers."""

import pytest

from repro.errors import ParameterError
from repro.utils.validation import (
    check_non_negative_int,
    check_positive_float,
    check_positive_int,
    check_probability,
)


class TestPositiveInt:
    def test_accepts(self):
        assert check_positive_int(3, "x") == 3

    def test_rejects_zero(self):
        with pytest.raises(ParameterError):
            check_positive_int(0, "x")

    def test_rejects_bool(self):
        with pytest.raises(ParameterError):
            check_positive_int(True, "x")

    def test_rejects_float(self):
        with pytest.raises(ParameterError):
            check_positive_int(1.5, "x")

    def test_message_names_parameter(self):
        with pytest.raises(ParameterError, match="stride"):
            check_positive_int(-1, "stride")


class TestNonNegativeInt:
    def test_accepts_zero(self):
        assert check_non_negative_int(0, "x") == 0

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            check_non_negative_int(-1, "x")

    def test_rejects_bool(self):
        with pytest.raises(ParameterError, match="x must be an int, got bool"):
            check_non_negative_int(False, "x")

    def test_rejects_float(self):
        with pytest.raises(ParameterError, match="x must be an int, got float"):
            check_non_negative_int(0.0, "x")


class TestPositiveFloat:
    def test_accepts(self):
        assert check_positive_float(0.5, "x") == 0.5

    def test_rejects_zero(self):
        with pytest.raises(ParameterError):
            check_positive_float(0.0, "x")

    def test_rejects_inf_and_nan(self):
        with pytest.raises(ParameterError):
            check_positive_float(float("inf"), "x")
        with pytest.raises(ParameterError):
            check_positive_float(float("nan"), "x")

    def test_rejects_non_number(self):
        with pytest.raises(ParameterError):
            check_positive_float("abc", "x")


class TestProbability:
    def test_bounds_inclusive(self):
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            check_probability(1.01, "p")

    def test_rejects_non_number(self):
        with pytest.raises(ParameterError, match="p must be a number, got 'half'"):
            check_probability("half", "p")
