"""Tests for the kernel programming cost model."""

from repro.arch.programming import programming_cost
from repro.reram.noise import NoiseModel
from repro.workloads.specs import get_layer


class TestProgrammingCost:
    def test_cell_count(self):
        layer = get_layer("GAN_Deconv3")
        cost = programming_cost(layer.spec)
        # 8-bit weights, 2 bits/cell, differential -> 8 cells per weight.
        assert cost.cells == layer.spec.num_weights * 8

    def test_ideal_programming_one_pulse_per_cell(self):
        cost = programming_cost(get_layer("FCN_Deconv1").spec)
        assert cost.pulses == cost.cells
        assert cost.converged_fraction == 1.0

    def test_noise_increases_pulses(self):
        spec = get_layer("FCN_Deconv1").spec
        clean = programming_cost(spec)
        noisy = programming_cost(spec, noise=NoiseModel(programming_sigma=0.3, seed=1))
        assert noisy.pulses >= clean.pulses

    def test_energy_latency_positive_and_proportional(self):
        spec = get_layer("FCN_Deconv1").spec
        cost = programming_cost(spec)
        assert cost.energy > 0.0
        assert cost.latency > 0.0
        double = programming_cost(get_layer("GAN_Deconv3").spec)
        assert double.energy > cost.energy  # bigger kernel, more cells

    def test_design_independence(self):
        """Programming cost depends on the kernel only, not the mapping —
        all three designs store identical cell populations."""
        spec = get_layer("GAN_Deconv3").spec
        a = programming_cost(spec, seed=0)
        b = programming_cost(spec, seed=0)
        assert a.pulses == b.pulses
