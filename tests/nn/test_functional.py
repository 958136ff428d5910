"""Tests for the NumPy NN functional ops."""

import numpy as np
import pytest

from repro.deconv.reference import conv_transpose2d as ref_deconv
from repro.deconv.shapes import DeconvSpec
from repro.errors import ShapeError
from repro.nn import functional as F


class TestConv:
    def test_conv2d_batch_matches_per_sample(self, rng):
        x = rng.normal(size=(3, 2, 6, 6))
        w = rng.normal(size=(3, 3, 2, 4))
        out = F.conv2d(x, w, stride=1, padding=1)
        assert out.shape == (3, 4, 6, 6)
        from repro.deconv.reference import conv2d as single

        for n in range(3):
            hwc = np.transpose(x[n], (1, 2, 0))
            expected = np.transpose(single(hwc, w, 1, 1), (2, 0, 1))
            np.testing.assert_allclose(out[n], expected, atol=1e-10)

    def test_conv2d_bias(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        w = rng.normal(size=(3, 3, 2, 5))
        bias = rng.normal(size=5)
        with_bias = F.conv2d(x, w, bias=bias, padding=1)
        without = F.conv2d(x, w, padding=1)
        np.testing.assert_allclose(with_bias - without, np.broadcast_to(bias.reshape(1, 5, 1, 1), with_bias.shape), atol=1e-12)

    def test_conv_transpose_matches_reference(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        w = rng.normal(size=(4, 4, 3, 5))
        out = F.conv_transpose2d(x, w, stride=2, padding=1)
        spec = DeconvSpec(4, 4, 3, 4, 4, 5, stride=2, padding=1)
        for n in range(2):
            hwc = np.transpose(x[n], (1, 2, 0))
            expected = np.transpose(ref_deconv(hwc, w, spec), (2, 0, 1))
            np.testing.assert_allclose(out[n], expected, atol=1e-10)

    def test_conv_transpose_channel_mismatch(self, rng):
        with pytest.raises(ShapeError):
            F.conv_transpose2d(rng.normal(size=(1, 2, 4, 4)), rng.normal(size=(3, 3, 5, 2)))

    def test_non_4d_rejected(self, rng):
        with pytest.raises(ShapeError):
            F.conv2d(rng.normal(size=(2, 4, 4)), rng.normal(size=(3, 3, 2, 1)))


class TestActivations:
    def test_relu(self):
        x = np.array([[[[-1.0, 2.0]]]])
        np.testing.assert_array_equal(F.relu(x), [[[[0.0, 2.0]]]])

    def test_tanh_range(self, rng):
        out = F.tanh(rng.normal(size=(2, 3, 4, 4)) * 10)
        assert out.min() >= -1.0 and out.max() <= 1.0


class TestBatchNorm:
    def test_identity_params(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        out = F.batch_norm(x, np.zeros(3), np.ones(3), np.ones(3), np.zeros(3), eps=0.0)
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_normalizes_running_stats(self, rng):
        x = rng.normal(size=(4, 2, 8, 8)) * 3.0 + 5.0
        mean = np.array([5.0, 5.0])
        var = np.array([9.0, 9.0])
        out = F.batch_norm(x, mean, var, np.ones(2), np.zeros(2), eps=0.0)
        assert abs(out.mean()) < 0.2
        assert abs(out.std() - 1.0) < 0.2

    def test_gamma_beta(self, rng):
        x = rng.normal(size=(1, 1, 4, 4))
        out = F.batch_norm(x, np.zeros(1), np.ones(1), np.array([2.0]), np.array([3.0]), eps=0.0)
        np.testing.assert_allclose(out, 2.0 * x + 3.0, atol=1e-12)

