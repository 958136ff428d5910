"""Tests for whole-network mapping."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn.modules import Conv2d, ConvTranspose2d, ReLU, Sequential
from repro.system.network_mapper import evaluate_network, extract_deconv_layers
from repro.workloads.networks import DCGANGenerator, FCN8sDecoder, SNGANGenerator


class TestExtraction:
    def test_sngan_has_four_deconvs(self):
        gen = SNGANGenerator(base_size=4, rng=np.random.default_rng(0))
        layers = extract_deconv_layers(gen, 1, 1)
        assert len(layers) == 4  # project + 3 blocks (to_rgb is a Conv2d)
        assert layers[0].spec.output_shape[:2] == (4, 4)
        assert layers[-1].spec.output_shape[:2] == (32, 32)

    def test_dcgan_has_five_deconvs(self):
        gen = DCGANGenerator(rng=np.random.default_rng(0))
        layers = extract_deconv_layers(gen, 1, 1)
        assert len(layers) == 5
        assert layers[-1].spec.output_shape == (64, 64, 3)

    def test_shapes_chain(self):
        gen = SNGANGenerator(base_size=4, rng=np.random.default_rng(0))
        layers = extract_deconv_layers(gen, 1, 1)
        for prev, nxt in zip(layers, layers[1:]):
            assert prev.spec.output_height == nxt.spec.input_height

    def test_table1_layer_found_in_network(self):
        """GAN_Deconv3's spec appears inside the SNGAN generator mapping."""
        from repro.workloads.specs import get_layer

        gen = SNGANGenerator(base_size=4, rng=np.random.default_rng(0))
        specs = [l.spec for l in extract_deconv_layers(gen, 1, 1)]
        assert get_layer("GAN_Deconv3").spec in specs

    def test_conv_layers_change_spatial_size(self):
        net = Sequential(
            Conv2d(3, 8, 3, stride=2, padding=1),
            ConvTranspose2d(8, 3, 4, stride=2, padding=1),
        )
        layers = extract_deconv_layers(net, 8, 8)
        assert layers[0].spec.input_height == 4  # after the conv downsample
        assert layers[0].spec.output_height == 8

    def test_fcn_decoder_layers(self):
        head = FCN8sDecoder()
        layers = extract_deconv_layers(head, 16, 16)
        assert [l.spec.stride for l in layers] == [2, 2, 8]

    def test_no_deconv_raises(self):
        with pytest.raises(ShapeError):
            extract_deconv_layers(Sequential(ReLU()), 4, 4)

    def test_layer_names_are_paths(self):
        gen = SNGANGenerator(base_size=4, rng=np.random.default_rng(0))
        names = [l.name for l in extract_deconv_layers(gen, 1, 1)]
        assert "project.0" in names
        assert "block1.0" in names


class TestEvaluation:
    @pytest.fixture(scope="class")
    def evaluation(self):
        gen = SNGANGenerator(base_size=4, rng=np.random.default_rng(0))
        return evaluate_network(gen, 1, 1)

    def test_all_designs_present(self, evaluation):
        assert set(evaluation.metrics) == {"zero-padding", "padding-free", "RED"}

    def test_red_fastest_end_to_end(self, evaluation):
        assert evaluation.speedup("RED") > evaluation.speedup("padding-free") > 1.0

    def test_red_saves_energy_end_to_end(self, evaluation):
        assert 0.0 < evaluation.energy_saving("RED") < 1.0

    def test_padding_free_costs_energy_on_gan(self, evaluation):
        assert evaluation.energy_saving("padding-free") < 0.0

    def test_totals_are_sums(self, evaluation):
        total = sum(
            m.latency.total for m in evaluation.metrics["RED"].values()
        )
        assert evaluation.total_latency("RED") == pytest.approx(total)
        energy = sum(m.energy.total for m in evaluation.metrics["RED"].values())
        assert evaluation.total_energy("RED") == pytest.approx(energy)

    def test_baseline_is_neutral(self, evaluation):
        assert evaluation.speedup("zero-padding") == 1.0
        assert evaluation.energy_saving("zero-padding") == 0.0

    def test_explicit_baseline(self, evaluation):
        assert evaluation.speedup("RED", baseline="padding-free") == pytest.approx(
            evaluation.total_latency("padding-free") / evaluation.total_latency("RED")
        )
        assert evaluation.energy_saving("RED", baseline="RED") == 0.0

    @pytest.mark.parametrize("design", ["zero-padding", "padding-free", "RED"])
    def test_table1_layer_costs_what_the_grid_says(self, evaluation, design):
        """GAN_Deconv3 inside SNGAN is evaluated exactly as its Table I row."""
        from repro.eval.harness import run_grid
        from repro.workloads.specs import get_layer

        layer = get_layer("GAN_Deconv3")
        (name,) = [l.name for l in evaluation.layers if l.spec == layer.spec]
        in_network = evaluation.metrics[design][name]
        in_grid = run_grid(layers=(layer,)).get(layer.name, design)
        assert in_network.layer == name
        assert (in_network.latency, in_network.energy, in_network.area, in_network.cycles) == (
            in_grid.latency, in_grid.energy, in_grid.area, in_grid.cycles
        )
