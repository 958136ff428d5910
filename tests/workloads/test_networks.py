"""Tests for the workload network definitions."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.workloads.data import latent_batch
from repro.workloads.networks import (
    DCGANGenerator,
    FCN8sDecoder,
    ImprovedGANGenerator,
    SNGANGenerator,
    build_network,
)
from repro.workloads.specs import get_layer


class TestGenerators:
    def test_dcgan_output_is_64x64_rgb(self):
        gen = DCGANGenerator()
        out = gen(latent_batch(2, gen.latent_dim))
        assert out.shape == (2, 3, 64, 64)
        assert np.abs(out).max() <= 1.0  # tanh output

    def test_dcgan_benchmark_layer_matches_table1(self):
        layer = DCGANGenerator().block2[0]
        spec = layer.deconv_spec(8, 8)
        assert spec.kernel_shape == get_layer("GAN_Deconv1").spec.kernel_shape
        assert spec.output_shape == get_layer("GAN_Deconv1").spec.output_shape

    def test_improved_gan_output_is_32x32(self):
        gen = ImprovedGANGenerator()
        assert gen(latent_batch(1, gen.latent_dim)).shape == (1, 3, 32, 32)

    def test_improved_gan_benchmark_layer(self):
        spec = ImprovedGANGenerator().block1[0].deconv_spec(4, 4)
        assert spec.kernel_shape == get_layer("GAN_Deconv2").spec.kernel_shape
        assert spec.output_shape == get_layer("GAN_Deconv2").spec.output_shape

    def test_sngan_cifar_output(self):
        gen = SNGANGenerator(base_size=4)
        assert gen(latent_batch(1, gen.latent_dim)).shape == (1, 3, 32, 32)

    def test_sngan_stl_output(self):
        gen = SNGANGenerator(base_size=6)
        assert gen(latent_batch(1, gen.latent_dim)).shape == (1, 3, 48, 48)

    def test_sngan_benchmark_layers(self):
        cifar = SNGANGenerator(base_size=4).block1[0].deconv_spec(4, 4)
        stl = SNGANGenerator(base_size=6).block1[0].deconv_spec(6, 6)
        assert cifar.output_shape == get_layer("GAN_Deconv3").spec.output_shape
        assert stl.output_shape == get_layer("GAN_Deconv4").spec.output_shape

    def test_sngan_invalid_base_size(self):
        with pytest.raises(ParameterError):
            SNGANGenerator(base_size=5)

    def test_generators_deterministic_given_rng(self):
        a = DCGANGenerator(rng=np.random.default_rng(7))
        b = DCGANGenerator(rng=np.random.default_rng(7))
        z = latent_batch(1, 100)
        np.testing.assert_array_equal(a(z), b(z))


class TestFCN:
    def test_head_chain_16_to_568(self):
        head = FCN8sDecoder()
        score = np.random.default_rng(0).standard_normal((1, 21, 16, 16))
        out = head(score)
        assert out.shape == (1, 21, 568, 568)

    def test_benchmark_layers_match_table1(self):
        head = FCN8sDecoder()
        up2, up8 = head.upscore2, head.upscore8
        assert up2.deconv_spec(16, 16).output_shape == get_layer("FCN_Deconv1").spec.output_shape
        assert up8.deconv_spec(70, 70).output_shape == get_layer("FCN_Deconv2").spec.output_shape

    def test_bilinear_initialization(self):
        head = FCN8sDecoder()
        w = head.upscore2.weight
        # Diagonal channel structure; even 4x4 bilinear kernel peaks at
        # 0.75^2 = 0.5625 in its central 2x2 block.
        assert w[:, :, 0, 0].max() == pytest.approx(0.5625, abs=1e-12)
        assert not w[:, :, 0, 1].any()


class TestBuilder:
    def test_builds_all_table1_networks(self):
        for name in ("DCGAN", "Improved GAN", "SNGAN", "voc-fcn8s 2x", "voc-fcn8s 8x"):
            assert build_network(name) is not None

    def test_unknown_network_raises(self):
        with pytest.raises(KeyError):
            build_network("BigGAN")

    def test_rng_and_seed_together_rejected(self):
        with pytest.raises(ValueError, match="rng or seed, not both"):
            build_network("SNGAN", rng=np.random.default_rng(0), seed=0)
