"""Tests for the module system."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.nn.modules import (
    BatchNorm2d,
    Conv2d,
    ConvTranspose2d,
    Identity,
    Module,
    ReLU,
    Sequential,
    Tanh,
)


class TestRegistry:
    def test_parameters_depth_first(self):
        seq = Sequential(Conv2d(2, 3, 3), BatchNorm2d(3))
        params = [p for module in seq.modules() for p in module._parameters.values()]
        assert params[0] is seq[0].weight
        assert any(p is seq[1]._parameters["gamma"] for p in params[1:])

    def test_register_parameter_type_check(self):
        module = Module()
        with pytest.raises(ParameterError):
            module.register_parameter("w", [1, 2, 3])

    def test_add_module_type_check(self):
        module = Module()
        with pytest.raises(ParameterError):
            module.add_module("m", object())

    def test_attribute_children_registered(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.layer = ReLU()

        net = Net()
        assert "layer" in net._children


class TestLayers:
    def test_conv_output_shape(self, rng):
        conv = Conv2d(3, 8, 3, stride=2, padding=1, rng=rng)
        out = conv(rng.normal(size=(2, 3, 8, 8)))
        assert out.shape == (2, 8, 4, 4)

    def test_deconv_output_shape(self, rng):
        deconv = ConvTranspose2d(8, 4, 4, stride=2, padding=1, rng=rng)
        out = deconv(rng.normal(size=(1, 8, 4, 4)))
        assert out.shape == (1, 4, 8, 8)

    def test_deconv_spec_builder(self):
        deconv = ConvTranspose2d(8, 4, 4, stride=2, padding=1)
        spec = deconv.deconv_spec(4, 4)
        assert spec.output_shape == (8, 8, 4)
        assert spec.kernel_shape == (4, 4, 8, 4)

    def test_sequential_composition(self, rng):
        net = Sequential(Conv2d(2, 4, 3, padding=1, rng=rng), ReLU())
        out = net(rng.normal(size=(1, 2, 5, 5)))
        assert out.min() >= 0.0
        assert len(net) == 2
        assert isinstance(net[1], ReLU)

    def test_identity(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        np.testing.assert_array_equal(Identity()(x), x)

    def test_elementwise_layers(self, rng):
        x = rng.normal(size=(1, 1, 3, 3))
        assert Tanh()(x).max() <= 1.0

    def test_batchnorm_defaults_identityish(self, rng):
        bn = BatchNorm2d(3)
        x = rng.normal(size=(1, 3, 4, 4))
        np.testing.assert_allclose(bn(x), x, atol=1e-2)

    def test_invalid_channels_rejected(self):
        with pytest.raises(ParameterError):
            Conv2d(0, 3, 3)
        with pytest.raises(ParameterError):
            ConvTranspose2d(2, 3, 3, stride=0)

    def test_base_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(np.zeros(1))
