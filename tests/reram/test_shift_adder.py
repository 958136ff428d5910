"""Tests for the shift-adder."""

import numpy as np
import pytest

from repro.reram.shift_adder import ShiftAdder, combine_bit_planes


class TestShiftAdder:
    def test_single_accumulate(self):
        adder = ShiftAdder()
        adder.accumulate(np.array([1, 2, 3]), shift=2)
        np.testing.assert_array_equal(adder.value, [4, 8, 12])

    def test_weighted_sum(self):
        adder = ShiftAdder()
        adder.accumulate(np.array([1, 1]), shift=0)
        adder.accumulate(np.array([1, 0]), shift=3)
        np.testing.assert_array_equal(adder.value, [9, 1])

    def test_signed_accumulate(self):
        adder = ShiftAdder()
        adder.accumulate_signed(np.array([5]), np.array([2]), shift=1)
        np.testing.assert_array_equal(adder.value, [6])

    def test_counters(self):
        adder = ShiftAdder()
        adder.accumulate(np.zeros(4, dtype=int), 0)
        adder.accumulate(np.zeros(4, dtype=int), 1)
        assert adder.operations == 8
        assert adder.accumulations == 2

    def test_value_before_any_accumulation_is_empty(self):
        value = ShiftAdder().value
        assert value.dtype == np.int64
        assert value.shape == (0,)

    def test_negative_shift_rejected(self):
        with pytest.raises(Exception):
            ShiftAdder().accumulate(np.array([1]), shift=-1)


class TestCombineBitPlanes:
    def test_radix2(self, rng):
        x = rng.integers(0, 256, size=(12,))
        planes = np.stack([(x >> b) & 1 for b in range(8)])
        np.testing.assert_array_equal(combine_bit_planes(planes, radix_bits=1), x)

    def test_radix4(self, rng):
        x = rng.integers(0, 4**4, size=(9,))
        digits = np.stack([(x >> (2 * d)) & 3 for d in range(4)])
        np.testing.assert_array_equal(combine_bit_planes(digits, radix_bits=2), x)

    def test_empty_leading_axis(self):
        out = combine_bit_planes(np.zeros((0, 5), dtype=int))
        np.testing.assert_array_equal(out, np.zeros(5, dtype=int))
