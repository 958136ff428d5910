"""Tests for the quantization algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ParameterError
from repro.nn.quantize import QuantParams, quantize_tensor, symmetric_quant_params


def dequantize(q, params):
    """Map quantized integers back to real values."""
    return (q.astype(np.float64) - params.zero_point) * params.scale


def quantization_error(x, params):
    """RMS error of the quantize/dequantize round trip."""
    round_trip = dequantize(quantize_tensor(x, params), params)
    return float(np.sqrt(np.mean((round_trip - x) ** 2))) if x.size else 0.0


class TestQuantParams:
    def test_signed_range(self):
        params = QuantParams(scale=1.0, zero_point=0, bits=8, signed=True)
        assert (params.qmin, params.qmax) == (-128, 127)

    def test_unsigned_range(self):
        params = QuantParams(scale=1.0, zero_point=0, bits=8, signed=False)
        assert (params.qmin, params.qmax) == (0, 255)

    def test_rejects_bad_scale(self):
        with pytest.raises(ParameterError):
            QuantParams(scale=0.0, zero_point=0, bits=8, signed=True)


class TestSymmetric:
    def test_scale_covers_peak(self, rng):
        x = rng.normal(size=(100,)) * 7.0
        params = symmetric_quant_params(x, bits=8)
        assert params.scale == pytest.approx(np.abs(x).max() / 127)

    def test_zero_tensor_gets_unit_scale(self):
        params = symmetric_quant_params(np.zeros(5), bits=8)
        assert params.scale == 1.0

    def test_subnormal_peak_keeps_a_positive_scale(self):
        # 5e-324 / 127 underflows to 0.0; the scale must not.
        x = np.array([5e-324, -5e-324])
        params = symmetric_quant_params(x, bits=8)
        assert params.scale == np.finfo(np.float64).smallest_subnormal
        assert quantize_tensor(x, params).tolist() == [1, -1]
        assert quantization_error(x, params) <= params.scale

    def test_empty_tensor_has_no_error(self):
        x = np.zeros(0)
        assert quantization_error(x, symmetric_quant_params(x, bits=8)) == 0.0

    def test_integers_survive_round_trip(self, rng):
        """Integers within range quantize losslessly at scale 1."""
        x = rng.integers(-127, 128, size=(50,)).astype(np.float64)
        params = QuantParams(scale=1.0, zero_point=0, bits=8, signed=True)
        q = quantize_tensor(x, params)
        np.testing.assert_array_equal(dequantize(q, params), x)

    @given(arrays(np.float64, (20,), elements=st.floats(-100, 100)))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_error_bounded(self, x):
        params = symmetric_quant_params(x, bits=8)
        err = quantization_error(x, params)
        assert err <= params.scale  # RMS error below one step

    def test_saturation(self):
        params = QuantParams(scale=1.0, zero_point=0, bits=4, signed=True)
        q = quantize_tensor(np.array([100.0, -100.0]), params)
        np.testing.assert_array_equal(q, [7, -8])

    def test_error_decreases_with_bits(self, rng):
        x = rng.normal(size=(500,))
        errs = [
            quantization_error(x, symmetric_quant_params(x, bits=b))
            for b in (2, 4, 8, 12)
        ]
        assert errs == sorted(errs, reverse=True)

    def test_unsigned_activations(self, rng):
        x = np.abs(rng.normal(size=(50,)))
        params = symmetric_quant_params(x, bits=8, signed=False)
        q = quantize_tensor(x, params)
        assert q.min() >= 0
        assert q.max() <= 255
