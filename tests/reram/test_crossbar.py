"""Tests for the analog crossbar array."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.reram.crossbar import CrossbarArray
from repro.reram.device import ReRAMDeviceParams
from repro.reram.noise import NoiseModel


@pytest.fixture
def digits(rng):
    return rng.integers(0, 4, size=(16, 8))


class TestConstruction:
    def test_shape_properties(self, digits):
        xbar = CrossbarArray(digits)
        assert xbar.rows == 16
        assert xbar.cols == 8

    def test_rejects_non_2d(self, rng):
        with pytest.raises(ShapeError):
            CrossbarArray(rng.integers(0, 4, size=(4,)))

    def test_conductance_within_window(self, digits):
        xbar = CrossbarArray(digits)
        assert xbar.conductance.min() >= xbar.device.g_min - 1e-12
        assert xbar.conductance.max() <= xbar.device.g_max + 1e-12


class TestAnalogReadback:
    def test_digit_sums_match_digital(self, digits, rng):
        xbar = CrossbarArray(digits)
        for _ in range(5):
            pulses = rng.integers(0, 2, size=(16,))
            np.testing.assert_array_equal(
                xbar.digit_sums(pulses), xbar.ideal_digit_sums(pulses)
            )

    def test_currents_linear_in_pulses(self, digits):
        xbar = CrossbarArray(digits)
        p1 = np.zeros(16, dtype=int)
        p1[2] = 1
        p2 = np.zeros(16, dtype=int)
        p2[9] = 1
        both = p1 + p2
        np.testing.assert_allclose(
            xbar.column_currents(both),
            xbar.column_currents(p1) + xbar.column_currents(p2),
            rtol=1e-9,
        )

    def test_no_pulses_no_current(self, digits):
        xbar = CrossbarArray(digits)
        assert not xbar.column_currents(np.zeros(16, dtype=int)).any()

    def test_wrong_pulse_length_raises(self, digits):
        xbar = CrossbarArray(digits)
        with pytest.raises(ShapeError):
            xbar.column_currents(np.zeros(15, dtype=int))

    def test_ideal_digit_sums_check_the_pulse_length(self, digits):
        xbar = CrossbarArray(digits)
        with pytest.raises(ShapeError, match=r"pulse vector must be \(16,\)"):
            xbar.ideal_digit_sums(np.ones(15, dtype=int))

    def test_binary_device(self, rng):
        device = ReRAMDeviceParams(bits_per_cell=1)
        digits = rng.integers(0, 2, size=(8, 4))
        xbar = CrossbarArray(digits, device=device)
        pulses = rng.integers(0, 2, size=(8,))
        np.testing.assert_array_equal(
            xbar.digit_sums(pulses), pulses @ digits
        )


class TestNonIdealities:
    def test_programming_noise_perturbs_conductance(self, digits):
        ideal = CrossbarArray(digits)
        noisy = CrossbarArray(digits, noise=NoiseModel(programming_sigma=0.1, seed=3))
        assert not np.allclose(ideal.conductance, noisy.conductance)

    def test_noise_clipped_to_window(self, digits):
        noisy = CrossbarArray(digits, noise=NoiseModel(programming_sigma=0.8, seed=3))
        device = noisy.device
        assert noisy.conductance.min() >= device.g_min - 1e-15
        assert noisy.conductance.max() <= device.g_max + 1e-15

    def test_ir_drop_reduces_current(self, digits):
        ideal = CrossbarArray(digits)
        droopy = CrossbarArray(
            digits, noise=NoiseModel(ir_drop=True, seed=0), wire_resistance=5.0
        )
        pulses = np.ones(16, dtype=int)
        assert droopy.column_currents(pulses).sum() < ideal.column_currents(pulses).sum()

    def test_ir_drop_worse_for_far_columns(self, rng):
        digits = np.full((8, 8), 3)
        droopy = CrossbarArray(
            digits, noise=NoiseModel(ir_drop=True), wire_resistance=10.0
        )
        currents = droopy.column_currents(np.ones(8, dtype=int))
        assert currents[0] > currents[-1]

    def test_stuck_at_faults_change_some_cells(self, digits):
        faulty = CrossbarArray(digits, noise=NoiseModel(stuck_at_rate=0.3, seed=9))
        ideal = CrossbarArray(digits)
        assert (faulty.conductance != ideal.conductance).any()
