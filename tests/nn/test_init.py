"""Tests for weight initializers."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn.init import bilinear_upsampling_kernel, dcgan_init, normal_init
from repro.nn.modules import BatchNorm2d, Conv2d, Sequential


class TestBilinearKernel:
    def test_diagonal_channel_mapping(self):
        w = bilinear_upsampling_kernel(4, 3, 3)
        assert w.shape == (4, 4, 3, 3)
        for c in range(3):
            for m in range(3):
                if c != m:
                    assert not w[:, :, c, m].any()

    def test_symmetric_filter(self):
        w = bilinear_upsampling_kernel(4, 1, 1)[:, :, 0, 0]
        np.testing.assert_allclose(w, w[::-1, ::-1])
        np.testing.assert_allclose(w, w.T)

    def test_odd_kernel_peak_at_center(self):
        w = bilinear_upsampling_kernel(5, 1, 1)[:, :, 0, 0]
        assert w[2, 2] == w.max() == pytest.approx(1.0)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            bilinear_upsampling_kernel(4, 3, 5)

    def test_stride2_interpolation_property(self):
        """Deconvolving a constant map with the bilinear kernel stays constant
        away from borders (the defining property of interpolation)."""
        from repro.deconv.reference import conv_transpose2d
        from repro.deconv.shapes import DeconvSpec

        spec = DeconvSpec(6, 6, 1, 4, 4, 1, stride=2, padding=1)
        x = np.ones(spec.input_shape)
        w = bilinear_upsampling_kernel(4, 1, 1)
        out = conv_transpose2d(x, w, spec)
        interior = out[3:-3, 3:-3, 0]
        np.testing.assert_allclose(interior, 1.0, atol=1e-12)


class TestStatInits:
    def test_dcgan_init_std(self):
        conv = Conv2d(64, 64, 5)
        dcgan_init(conv, rng=np.random.default_rng(0))
        assert conv.weight.std() == pytest.approx(0.02, rel=0.1)

    def test_normal_init_zeroes_bias(self):
        conv = Conv2d(4, 4, 3, bias=True)
        conv._parameters["bias"][...] = 1.0
        normal_init(conv)
        assert not conv.bias.any()

    def test_normal_init_preserves_running_stats(self):
        net = Sequential(Conv2d(2, 2, 3), BatchNorm2d(2))
        normal_init(net)
        bn = net[1]
        np.testing.assert_array_equal(bn._parameters["running_var"], np.ones(2))
