"""Tests for the composed bit-accurate crossbar pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ShapeError
from repro.reram.bitslice import WeightSlicing
from repro.reram.noise import NoiseModel
from repro.reram.pipeline import CrossbarPipeline


class TestExactness:
    def test_digital_path_exact(self, rng):
        w = rng.integers(-127, 128, size=(32, 12))
        x = rng.integers(0, 256, size=(6, 32))
        result = CrossbarPipeline(w).matmul(x)
        np.testing.assert_array_equal(result.values, x @ w)

    def test_analog_path_exact(self, rng):
        w = rng.integers(-127, 128, size=(24, 8))
        x = rng.integers(0, 256, size=(4, 24))
        result = CrossbarPipeline(w, analog=True).matmul(x)
        np.testing.assert_array_equal(result.values, x @ w)

    @given(
        arrays(np.int64, (6, 3), elements=st.integers(-127, 127)),
        arrays(np.int64, (2, 6), elements=st.integers(0, 255)),
    )
    @settings(max_examples=25, deadline=None)
    def test_exactness_property(self, w, x):
        result = CrossbarPipeline(w).matmul(x)
        np.testing.assert_array_equal(result.values, x @ w)

    @pytest.mark.parametrize("bpc", [1, 2, 4])
    def test_exact_across_cell_precisions(self, rng, bpc):
        from repro.reram.device import ReRAMDeviceParams

        w = rng.integers(-127, 128, size=(16, 5))
        x = rng.integers(0, 256, size=(3, 16))
        pipe = CrossbarPipeline(
            w,
            slicing=WeightSlicing(8, bpc),
            device=ReRAMDeviceParams(bits_per_cell=bpc),
        )
        np.testing.assert_array_equal(pipe.matmul(x).values, x @ w)

    def test_low_input_precision(self, rng):
        w = rng.integers(-7, 8, size=(8, 4))
        x = rng.integers(0, 16, size=(2, 8))
        pipe = CrossbarPipeline(w, slicing=WeightSlicing(4, 2), bits_input=4)
        np.testing.assert_array_equal(pipe.matmul(x).values, x @ w)


class TestDegradation:
    def test_reduced_adc_introduces_error(self, rng):
        w = rng.integers(-127, 128, size=(64, 8))
        x = rng.integers(0, 256, size=(8, 64))
        lossy = CrossbarPipeline(w, adc_bits=3).matmul(x)
        assert not np.array_equal(lossy.values, x @ w)

    def test_adc_error_decreases_with_bits(self, rng):
        w = rng.integers(-127, 128, size=(64, 8))
        x = rng.integers(0, 256, size=(8, 64))
        exact = (x @ w).astype(np.float64)

        def rel_err(bits):
            out = CrossbarPipeline(w, adc_bits=bits).matmul(x).values
            return np.abs(out - exact).mean() / (np.abs(exact).mean() + 1e-12)

        errors = [rel_err(b) for b in (2, 4, 6, 9)]
        assert errors[0] > errors[-1]
        assert errors[-1] < 0.05

    def test_programming_noise_degrades(self, rng):
        w = rng.integers(-127, 128, size=(32, 8))
        x = rng.integers(0, 256, size=(4, 32))
        noisy = CrossbarPipeline(
            w, noise=NoiseModel(programming_sigma=0.2, seed=11)
        ).matmul(x)
        exact = x @ w
        err = np.abs(noisy.values - exact).mean() / (np.abs(exact).mean() + 1e-12)
        assert 0.0 < err < 1.0


class TestActivity:
    def test_conversion_count(self, rng):
        w = rng.integers(-127, 128, size=(16, 6))
        x = rng.integers(0, 256, size=(3, 16))
        result = CrossbarPipeline(w).matmul(x)
        # bits_input * num_slices * 2 (differential) * cols * rows_of_x
        assert result.activity.adc_conversions == 8 * 4 * 2 * 6 * 3

    def test_pulse_count_tracks_ones(self):
        w = np.ones((4, 2), dtype=np.int64)
        x = np.array([[0, 0, 0, 0], [255, 255, 255, 255]])
        result = CrossbarPipeline(w).matmul(x)
        assert result.activity.input_pulses == 4 * 8  # only the all-ones row

    def test_matvec_shape_check(self, rng):
        pipe = CrossbarPipeline(rng.integers(-10, 10, size=(8, 3)))
        with pytest.raises(ShapeError):
            pipe.matvec(np.zeros(7, dtype=np.int64))

    def test_matmul_shape_check(self, rng):
        pipe = CrossbarPipeline(rng.integers(-10, 10, size=(8, 3)))
        with pytest.raises(ShapeError, match=r"X must be \(n, 8\)"):
            pipe.matmul(np.zeros((2, 7), dtype=np.int64))
        with pytest.raises(ShapeError, match=r"X must be \(n, 8\)"):
            pipe.matmul(np.zeros(8, dtype=np.int64))

    def test_weights_must_be_a_matrix(self):
        with pytest.raises(ShapeError, match="weights must be 2-D, got ndim=1"):
            CrossbarPipeline(np.arange(8))

    def test_mismatched_device_rejected(self, rng):
        from repro.reram.device import ReRAMDeviceParams

        with pytest.raises(ShapeError):
            CrossbarPipeline(
                rng.integers(-10, 10, size=(8, 3)),
                slicing=WeightSlicing(8, 2),
                device=ReRAMDeviceParams(bits_per_cell=4),
            )
