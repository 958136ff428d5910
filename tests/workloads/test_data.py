"""Tests for the synthetic data generators."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.workloads.data import latent_batch, layer_input, layer_kernel
from repro.workloads.specs import get_layer


class TestLatents:
    def test_shape(self):
        assert latent_batch(4, 100).shape == (4, 100)

    def test_deterministic(self):
        np.testing.assert_array_equal(latent_batch(2, 8, seed=5), latent_batch(2, 8, seed=5))

    def test_different_seeds_differ(self):
        assert not np.array_equal(latent_batch(2, 8, seed=1), latent_batch(2, 8, seed=2))

    def test_rejects_bad_batch(self):
        with pytest.raises(ParameterError):
            latent_batch(0, 8)


class TestLayerTensors:
    def test_layer_input_shape(self):
        layer = get_layer("GAN_Deconv3")
        assert layer_input(layer).shape == layer.spec.input_shape

    def test_layer_kernel_shape(self):
        layer = get_layer("GAN_Deconv3")
        assert layer_kernel(layer).shape == layer.spec.kernel_shape

    def test_accepts_raw_spec(self):
        spec = get_layer("FCN_Deconv1").spec
        assert layer_input(spec).shape == spec.input_shape

    def test_deterministic(self):
        layer = get_layer("GAN_Deconv3")
        np.testing.assert_array_equal(layer_input(layer, seed=2), layer_input(layer, seed=2))
