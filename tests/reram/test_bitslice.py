"""Tests for weight bit-slicing and input bit-serial encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import DeviceError, ParameterError
from repro.reram.bitslice import (
    WeightSlicing,
    bit_serial_inputs,
    reassemble_slices,
    slice_weights,
)


class TestSlicingConfig:
    def test_default_8bit_2bpc(self):
        slicing = WeightSlicing()
        assert slicing.num_slices == 4
        assert slicing.base == 4

    def test_uneven_division_rounds_up(self):
        assert WeightSlicing(bits_weight=7, bits_per_cell=2).num_slices == 4
        assert WeightSlicing(bits_weight=8, bits_per_cell=3).num_slices == 3


class TestSliceWeights:
    def test_round_trip_exact(self, rng):
        slicing = WeightSlicing()
        w = rng.integers(-127, 128, size=(6, 7))
        pos, neg = slice_weights(w, slicing)
        np.testing.assert_array_equal(reassemble_slices(pos, neg, slicing), w)

    @given(
        arrays(np.int64, (4, 3), elements=st.integers(-128, 127)),
        st.sampled_from([(8, 2), (8, 1), (8, 4), (6, 2), (4, 2)]),
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, w, config):
        bits, bpc = config
        limit = 1 << (bits - 1)
        w = np.clip(w, -limit, limit - 1)
        slicing = WeightSlicing(bits_weight=bits, bits_per_cell=bpc)
        pos, neg = slice_weights(w, slicing)
        np.testing.assert_array_equal(reassemble_slices(pos, neg, slicing), w)

    def test_differential_exclusivity(self, rng):
        """A weight is positive or negative, never both planes at once."""
        slicing = WeightSlicing()
        w = rng.integers(-127, 128, size=(5, 5))
        pos, neg = slice_weights(w, slicing)
        overlap = (pos.sum(axis=-1) > 0) & (neg.sum(axis=-1) > 0)
        assert not overlap.any()

    def test_digits_within_cell_range(self, rng):
        slicing = WeightSlicing()
        pos, neg = slice_weights(rng.integers(-127, 128, size=(8, 8)), slicing)
        for plane in (pos, neg):
            assert plane.min() >= 0
            assert plane.max() < slicing.base

    def test_rejects_float_weights(self):
        with pytest.raises(ParameterError):
            slice_weights(np.ones((2, 2)), WeightSlicing())

    def test_rejects_out_of_range(self):
        with pytest.raises(DeviceError):
            slice_weights(np.array([200]), WeightSlicing())


class TestBitSerial:
    def test_round_trip(self, rng):
        x = rng.integers(0, 256, size=(10,))
        planes = bit_serial_inputs(x, 8)
        recon = sum((1 << b) * planes[b] for b in range(8))
        np.testing.assert_array_equal(recon, x)

    @given(arrays(np.int64, (6,), elements=st.integers(0, 255)))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, x):
        planes = bit_serial_inputs(x, 8)
        recon = sum((1 << b) * planes[b] for b in range(8))
        np.testing.assert_array_equal(recon, x)

    def test_planes_are_binary(self, rng):
        planes = bit_serial_inputs(rng.integers(0, 256, size=(20,)), 8)
        assert set(np.unique(planes)) <= {0, 1}

    def test_rejects_negative(self):
        with pytest.raises(DeviceError):
            bit_serial_inputs(np.array([-1]), 8)

    def test_rejects_overflow(self):
        with pytest.raises(DeviceError):
            bit_serial_inputs(np.array([256]), 8)

    def test_rejects_float(self):
        with pytest.raises(ParameterError):
            bit_serial_inputs(np.array([1.5]), 8)
