"""Tests for chip provisioning."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.system.chip import provision_chip
from repro.system.network_mapper import NetworkEvaluation, evaluate_network
from repro.workloads.networks import SNGANGenerator


@pytest.fixture(scope="module")
def evaluation():
    gen = SNGANGenerator(base_size=4, rng=np.random.default_rng(0))
    return evaluate_network(gen, 1, 1)


class TestChip:
    def test_chip_covers_every_layer(self, evaluation):
        chip = provision_chip(evaluation, "RED")
        for name, metrics in evaluation.metrics["RED"].items():
            layer_area = metrics.area
            for component, value in layer_area.as_dict().items():
                assert value <= chip.area.as_dict()[component] + 1e-18, (name, component)

    def test_utilization_in_unit_interval(self, evaluation):
        chip = provision_chip(evaluation, "RED")
        for layer, util in chip.per_layer_utilization.items():
            assert 0.0 < util <= 1.0, layer

    def test_biggest_layer_fully_utilizes_nothing_smaller(self, evaluation):
        chip = provision_chip(evaluation, "zero-padding")
        assert max(chip.per_layer_utilization.values()) <= 1.0

    def test_red_chip_overhead_matches_paper_gan_claim(self, evaluation):
        """Chip-level RED overhead on a GAN generator ~ the paper's +21.41%."""
        red = provision_chip(evaluation, "RED")
        zp = provision_chip(evaluation, "zero-padding")
        overhead = red.overhead_over(zp)
        assert 0.15 <= overhead <= 0.30

    def test_padding_free_chip_larger_than_red(self, evaluation):
        pf = provision_chip(evaluation, "padding-free")
        red = provision_chip(evaluation, "RED")
        assert pf.total_area > red.total_area

    def test_unknown_design_rejected(self, evaluation):
        with pytest.raises(ParameterError):
            provision_chip(evaluation, "tpu")

    def test_unknown_mode_rejected(self, evaluation):
        with pytest.raises(ParameterError):
            provision_chip(evaluation, "RED", mode="magic")

    def test_evaluation_without_layers_rejected(self):
        empty = NetworkEvaluation(layers=[], metrics={"RED": {}})
        with pytest.raises(ParameterError, match="holds no layers"):
            provision_chip(empty, "RED")


class TestPipelinedProvisioning:
    def test_pipelined_chip_is_component_sum(self, evaluation):
        pipelined = provision_chip(evaluation, "RED", mode="pipelined")
        total = sum(m.area.total for m in evaluation.metrics["RED"].values())
        assert pipelined.total_area == pytest.approx(total)

    def test_pipelined_larger_than_time_multiplexed(self, evaluation):
        tm = provision_chip(evaluation, "RED", mode="time-multiplexed")
        pipelined = provision_chip(evaluation, "RED", mode="pipelined")
        assert pipelined.total_area > tm.total_area

    def test_pipelined_array_holds_all_weights(self, evaluation):
        pipelined = provision_chip(evaluation, "RED", mode="pipelined")
        per_layer = sum(
            m.area.computation for m in evaluation.metrics["RED"].values()
        )
        assert pipelined.area.computation == pytest.approx(per_layer)
