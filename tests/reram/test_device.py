"""Tests for the 1T1R cell model."""

import numpy as np
import pytest

from repro.errors import DeviceError
from repro.reram.device import (
    ReRAMDeviceParams,
    conductance_grid,
    conductance_to_digits,
    digits_to_conductance,
)


class TestParams:
    def test_defaults_are_consistent(self):
        params = ReRAMDeviceParams()
        assert params.g_max > params.g_min > 0
        assert params.num_levels == 4
        assert params.r_off / params.r_on == pytest.approx(10.0)

    def test_rejects_inverted_window(self):
        with pytest.raises(DeviceError):
            ReRAMDeviceParams(r_on=1e6, r_off=100e3)

    def test_rejects_non_positive_resistance(self):
        with pytest.raises(Exception):
            ReRAMDeviceParams(r_on=0.0)

    def test_num_levels_scales_with_bits(self):
        assert ReRAMDeviceParams(bits_per_cell=1).num_levels == 2
        assert ReRAMDeviceParams(bits_per_cell=3).num_levels == 8


class TestConductanceGrid:
    def test_grid_spans_window(self):
        params = ReRAMDeviceParams()
        grid = conductance_grid(params)
        assert grid[0] == pytest.approx(params.g_min)
        assert grid[-1] == pytest.approx(params.g_max)
        assert len(grid) == params.num_levels

    def test_grid_uniform_spacing(self):
        grid = conductance_grid(ReRAMDeviceParams(bits_per_cell=3))
        steps = np.diff(grid)
        np.testing.assert_allclose(steps, steps[0])

    def test_digit_round_trip(self):
        params = ReRAMDeviceParams()
        digits = np.arange(params.num_levels).reshape(2, 2)
        g = digits_to_conductance(digits, params)
        np.testing.assert_array_equal(conductance_to_digits(g, params), digits)

    def test_out_of_range_digit_raises(self):
        params = ReRAMDeviceParams()
        with pytest.raises(DeviceError):
            digits_to_conductance(np.array([4]), params)
        with pytest.raises(DeviceError):
            digits_to_conductance(np.array([-1]), params)

    def test_nearest_level_snapping(self):
        params = ReRAMDeviceParams()
        grid = conductance_grid(params)
        perturbed = grid + 0.2 * (grid[1] - grid[0])
        np.testing.assert_array_equal(
            conductance_to_digits(perturbed, params), np.arange(params.num_levels)
        )


class TestGridModes:
    def test_resistance_grid_endpoints(self):
        params = ReRAMDeviceParams(grid_mode="resistance")
        grid = conductance_grid(params)
        assert grid[0] == pytest.approx(params.g_min)
        assert grid[-1] == pytest.approx(params.g_max)

    def test_resistance_grid_is_nonuniform_in_conductance(self):
        grid = conductance_grid(ReRAMDeviceParams(grid_mode="resistance"))
        steps = np.diff(grid)
        assert steps.max() / steps.min() > 1.5

    def test_unknown_mode_rejected(self):
        from repro.errors import DeviceError

        with pytest.raises(DeviceError):
            ReRAMDeviceParams(grid_mode="logarithmic")

    def test_resistance_grid_breaks_analog_exactness(self, rng):
        """Why PIM cells use conductance spacing: on a uniform-resistance
        grid the affine integer readback no longer holds."""
        from repro.reram.crossbar import CrossbarArray

        digits = rng.integers(0, 4, size=(32, 8))
        pulses = rng.integers(0, 2, size=(32,))
        good = CrossbarArray(digits, device=ReRAMDeviceParams())
        assert np.array_equal(good.digit_sums(pulses), good.ideal_digit_sums(pulses))
        bad = CrossbarArray(digits, device=ReRAMDeviceParams(grid_mode="resistance"))
        assert not np.array_equal(bad.digit_sums(pulses), bad.ideal_digit_sums(pulses))
