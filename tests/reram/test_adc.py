"""Tests for the ADC / read-circuit model."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.reram.adc import ADCParams, adc_for_crossbar, exact_adc_bits, quantize_readout


class TestExactBits:
    def test_known_values(self):
        assert exact_adc_bits(1, 2) == 1           # max sum 1
        assert exact_adc_bits(128, 4) == 9         # max sum 384 -> 9 bits
        assert exact_adc_bits(512, 4) == 11        # max sum 1536

    def test_monotone_in_rows(self):
        bits = [exact_adc_bits(r, 4) for r in (1, 16, 64, 256, 1024)]
        assert bits == sorted(bits)

    def test_rejects_bad_args(self):
        with pytest.raises(ParameterError):
            exact_adc_bits(0, 4)


class TestQuantizeReadout:
    def test_none_is_lossless(self, rng):
        sums = rng.integers(0, 1000, size=(32,))
        np.testing.assert_array_equal(quantize_readout(sums, None), sums)

    def test_full_resolution_only_saturates(self, rng):
        params = ADCParams(bits=10, full_scale=384)
        sums = rng.integers(0, 385, size=(64,))
        np.testing.assert_array_equal(quantize_readout(sums, params), sums)

    def test_saturation_clips(self):
        params = ADCParams(bits=10, full_scale=100)
        np.testing.assert_array_equal(
            quantize_readout(np.array([150, -5]), params), np.array([100, 0])
        )

    def test_low_resolution_quantizes(self):
        params = ADCParams(bits=2, full_scale=300)
        out = quantize_readout(np.arange(0, 301, 50), params)
        assert len(np.unique(out)) <= 4

    def test_quantization_monotone(self):
        params = ADCParams(bits=3, full_scale=1000)
        inputs = np.arange(0, 1001, 7)
        out = quantize_readout(inputs, params)
        assert (np.diff(out) >= 0).all()

    def test_reconstruction_error_bounded_by_step(self, rng):
        params = ADCParams(bits=5, full_scale=992)
        sums = rng.integers(0, 993, size=(100,))
        out = quantize_readout(sums, params)
        assert np.abs(out - sums).max() <= params.step / 2 + 1


class TestAdcForCrossbar:
    def test_default_is_exact(self):
        params = adc_for_crossbar(128, 4)
        assert params.bits == exact_adc_bits(128, 4)
        assert params.full_scale == 128 * 3

    def test_explicit_bits_respected(self):
        assert adc_for_crossbar(128, 4, bits=6).bits == 6

    def test_single_level_cells_have_no_range_to_convert(self):
        with pytest.raises(ParameterError, match="zero dynamic range"):
            adc_for_crossbar(128, 1, bits=4)

    def test_num_codes(self):
        assert ADCParams(bits=8, full_scale=100).num_codes == 256
