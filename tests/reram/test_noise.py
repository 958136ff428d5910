"""Tests for the non-ideality models."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.reram.device import ReRAMDeviceParams
from repro.reram.noise import NoiseModel


class TestNoiseModel:
    def test_zero_noise_is_identity_on_programming(self, rng):
        device = ReRAMDeviceParams()
        model = NoiseModel()
        g = rng.uniform(device.g_min, device.g_max, size=(8, 8))
        np.testing.assert_array_equal(model.apply_programming(g, device), g)

    def test_zero_noise_is_identity_on_read(self, rng):
        model = NoiseModel()
        currents = rng.uniform(0, 1e-5, size=(16,))
        np.testing.assert_array_equal(model.apply_read(currents), currents)

    def test_programming_noise_deterministic_per_seed(self, rng):
        device = ReRAMDeviceParams()
        g = rng.uniform(device.g_min, device.g_max, size=(8, 8))
        a = NoiseModel(programming_sigma=0.1, seed=5).apply_programming(g, device)
        b = NoiseModel(programming_sigma=0.1, seed=5).apply_programming(g, device)
        np.testing.assert_array_equal(a, b)

    def test_read_noise_scales_with_sigma(self, rng):
        currents = rng.uniform(1e-6, 1e-5, size=(512,))
        small = NoiseModel(read_noise_sigma=0.01, seed=1).apply_read(currents)
        large = NoiseModel(read_noise_sigma=0.2, seed=1).apply_read(currents)
        assert np.abs(large - currents).std() > np.abs(small - currents).std()

    def test_stuck_at_rate_fraction(self, rng):
        device = ReRAMDeviceParams()
        g = np.full((100, 100), (device.g_min + device.g_max) / 2)
        out = NoiseModel(stuck_at_rate=0.25, seed=2).apply_programming(g, device)
        frac = (out != g[0, 0]).mean()
        assert 0.15 < frac < 0.35

    def test_invalid_rate_rejected(self):
        with pytest.raises(ParameterError):
            NoiseModel(stuck_at_rate=1.5)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ParameterError):
            NoiseModel(programming_sigma=-0.1)


class TestSeedingContract:
    """The SeedSequence-spawn seeding contract (see repro/reram/__init__.py)."""

    def test_explicit_stream_is_a_pure_function_of_seed(self, rng):
        device = ReRAMDeviceParams()
        g = rng.uniform(device.g_min, device.g_max, size=(8, 8))
        model = NoiseModel(programming_sigma=0.1, seed=5)
        a = model.apply_programming(g, device, stream=3)
        b = model.apply_programming(g, device, stream=3)
        np.testing.assert_array_equal(a, b)

    def test_counter_sequence_reproducible_across_instances(self, rng):
        device = ReRAMDeviceParams()
        g = rng.uniform(device.g_min, device.g_max, size=(8, 8))
        first = NoiseModel(programming_sigma=0.1, seed=9)
        second = NoiseModel(programming_sigma=0.1, seed=9)
        for _ in range(3):
            np.testing.assert_array_equal(
                first.apply_programming(g, device),
                second.apply_programming(g, device),
            )

    def test_counter_calls_draw_fresh_variates(self, rng):
        device = ReRAMDeviceParams()
        g = rng.uniform(device.g_min, device.g_max, size=(8, 8))
        model = NoiseModel(programming_sigma=0.1, seed=9)
        assert not np.array_equal(
            model.apply_programming(g, device), model.apply_programming(g, device)
        )

    def test_domains_do_not_interfere(self, rng):
        """Interleaved reads must not shift the programming draws."""
        device = ReRAMDeviceParams()
        g = rng.uniform(device.g_min, device.g_max, size=(8, 8))
        currents = rng.uniform(1e-6, 1e-5, size=(16,))
        plain = NoiseModel(programming_sigma=0.1, read_noise_sigma=0.05, seed=4)
        interleaved = NoiseModel(programming_sigma=0.1, read_noise_sigma=0.05, seed=4)
        a = plain.apply_programming(g, device)
        interleaved.apply_read(currents)
        b = interleaved.apply_programming(g, device)
        np.testing.assert_array_equal(a, b)

    def test_stuck_pattern_independent_of_programming_sigma(self, rng):
        device = ReRAMDeviceParams()
        noisy = NoiseModel(programming_sigma=0.3, stuck_at_rate=0.1, seed=11)
        clean = NoiseModel(stuck_at_rate=0.1, seed=11)
        mask_noisy, ext_noisy = noisy.stuck_faults((32, 32), device, stream=0)
        mask_clean, ext_clean = clean.stuck_faults((32, 32), device, stream=0)
        np.testing.assert_array_equal(mask_noisy, mask_clean)
        np.testing.assert_array_equal(ext_noisy, ext_clean)

    def test_negative_stream_rejected(self):
        model = NoiseModel(programming_sigma=0.1, seed=0)
        with pytest.raises(ParameterError):
            model.programming_factors((2, 2), stream=-1)

    def test_bool_stream_rejected(self):
        model = NoiseModel(programming_sigma=0.1, seed=0)
        with pytest.raises(ParameterError):
            model.programming_factors((2, 2), stream=True)

    def test_float_stream_rejected(self):
        model = NoiseModel(programming_sigma=0.1, seed=0)
        with pytest.raises(ParameterError, match="must be an int, got 1.0"):
            model.programming_factors((2, 2), stream=1.0)

    def test_numpy_integer_stream_is_the_same_stream(self):
        model = NoiseModel(programming_sigma=0.1, seed=0)
        np.testing.assert_array_equal(
            model.programming_factors((2, 2), stream=np.int64(3)),
            model.programming_factors((2, 2), stream=3),
        )

    def test_zero_sigma_factors_are_ones(self):
        model = NoiseModel(programming_sigma=0.0, seed=0)
        factors = model.programming_factors((3, 2), stream=0)
        assert factors.dtype == np.float64
        np.testing.assert_array_equal(factors, np.ones((3, 2)))


class TestEmptyReadGuard:
    def test_empty_input_returned_unchanged(self):
        model = NoiseModel(read_noise_sigma=0.1, seed=0)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # np.mean([]) would warn then NaN
            out = model.apply_read(np.zeros((0,)))
        assert out.shape == (0,)
        assert not np.isnan(out).any()

    def test_empty_2d_input(self):
        model = NoiseModel(read_noise_sigma=0.1, seed=0)
        out = model.apply_read(np.zeros((4, 0)))
        assert out.shape == (4, 0)
