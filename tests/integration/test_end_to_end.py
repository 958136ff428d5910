"""Integration tests: whole workload layers through whole designs."""

import numpy as np
import pytest

from repro.core.red_design import REDDesign
from repro.deconv.reference import conv_transpose2d
from repro.designs.padding_free_design import PaddingFreeDesign
from repro.designs.zero_padding_design import ZeroPaddingDesign
from repro.nn.quantize import quantize_tensor, symmetric_quant_params
from repro.workloads.data import layer_input, layer_kernel
from repro.workloads.networks import SNGANGenerator
from repro.workloads.specs import get_layer


class TestTableILayersFunctional:
    """Full-size Table I layers through every design's functional path."""

    @pytest.mark.parametrize("name", ["GAN_Deconv3", "FCN_Deconv1"])
    def test_all_designs_agree_on_real_layers(self, name):
        layer = get_layer(name)
        x = layer_input(layer)
        w = layer_kernel(layer)
        ref = conv_transpose2d(x, w, layer.spec)
        zp = ZeroPaddingDesign(layer.spec).run_functional(x, w)
        pf = PaddingFreeDesign(layer.spec).run_functional(x, w)
        red = REDDesign(layer.spec).run_functional(x, w)
        np.testing.assert_allclose(zp.output, ref, atol=1e-8)
        np.testing.assert_allclose(pf.output, ref, atol=1e-8)
        np.testing.assert_allclose(red.output, ref, atol=1e-8)

    def test_cycle_ratio_on_real_layer(self):
        """GAN_Deconv3: ZP runs 64 cycles, RED 16 — the 4x of Fig. 5c."""
        layer = get_layer("GAN_Deconv3")
        x, w = layer_input(layer), layer_kernel(layer)
        zp = ZeroPaddingDesign(layer.spec).run_functional(x, w)
        red = REDDesign(layer.spec).run_functional(x, w)
        assert zp.cycles == 64
        assert red.cycles == 16

    def test_fcn2_perf_only(self):
        """FCN_Deconv2 is too large for functional runs in CI; the perf
        model alone must still report the folded geometry."""
        layer = get_layer("FCN_Deconv2")
        design = REDDesign(layer.spec)
        assert design.fold == 2
        assert design.num_physical_scs == 128
        metrics = design.evaluate(layer.name)
        assert metrics.cycles == 10082


class TestNetworkLayerOnAccelerator:
    def test_sngan_generator_layer_through_red(self):
        """Take the actual SNGAN generator's deconv layer (weights and an
        intermediate activation from a real forward pass) and run it
        through RED."""
        gen = SNGANGenerator(base_size=4, rng=np.random.default_rng(3))
        z = np.random.default_rng(4).standard_normal((1, gen.latent_dim))
        feature = gen.project(z.reshape(1, gen.latent_dim, 1, 1))  # (1, 512, 4, 4)
        deconv = gen.block1[0]
        spec = deconv.deconv_spec(4, 4)
        x_hwc = np.transpose(feature[0], (1, 2, 0))
        ref = conv_transpose2d(x_hwc, deconv.weight, spec)
        red = REDDesign(spec).run_functional(x_hwc, deconv.weight)
        np.testing.assert_allclose(red.output, ref, atol=1e-8)

    def test_quantized_end_to_end_error_small(self):
        """Quantize a real layer to 8-bit, run the bit-accurate ReRAM path,
        dequantize, and check the relative error against float."""
        from repro.deconv.shapes import DeconvSpec

        spec = DeconvSpec(4, 4, 16, 4, 4, 8, stride=2, padding=1)
        rng = np.random.default_rng(5)
        x = np.maximum(rng.standard_normal(spec.input_shape), 0.0)
        w = rng.normal(0.0, 0.02, size=spec.kernel_shape)
        xq_params = symmetric_quant_params(x, bits=8, signed=False)
        wq_params = symmetric_quant_params(w, bits=8, signed=True)
        x_int = quantize_tensor(x, xq_params)
        w_int = quantize_tensor(w, wq_params)
        run = REDDesign(spec).run_quantized(x_int, w_int)
        approx = run.output * xq_params.scale * wq_params.scale
        ref = conv_transpose2d(x, w, spec)
        rel_err = np.abs(approx - ref).mean() / (np.abs(ref).mean() + 1e-12)
        assert rel_err < 0.05

    def test_quantized_matches_integer_reference_exactly(self):
        from repro.deconv.shapes import DeconvSpec
        from tests.conftest import integer_operands

        spec = DeconvSpec(3, 3, 8, 4, 4, 4, stride=2, padding=1)
        x_int, w_int = integer_operands(spec)
        expected = conv_transpose2d(
            x_int.astype(float), w_int.astype(float), spec
        ).astype(np.int64)
        for design_cls in (ZeroPaddingDesign, PaddingFreeDesign, REDDesign):
            run = design_cls(spec).run_quantized(x_int, w_int)
            np.testing.assert_array_equal(run.output, expected)
