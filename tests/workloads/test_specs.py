"""Tests for the Table I benchmark specifications."""

import pytest

from repro.workloads.specs import get_layer, layer_names


EXPECTED_ROWS = {
    "GAN_Deconv1": ((8, 8, 512), (16, 16, 256), (5, 5, 512, 256), 2),
    "GAN_Deconv2": ((4, 4, 512), (8, 8, 256), (5, 5, 512, 256), 2),
    "GAN_Deconv3": ((4, 4, 512), (8, 8, 256), (4, 4, 512, 256), 2),
    "GAN_Deconv4": ((6, 6, 512), (12, 12, 256), (4, 4, 512, 256), 2),
    "FCN_Deconv1": ((16, 16, 21), (34, 34, 21), (4, 4, 21, 21), 2),
    "FCN_Deconv2": ((70, 70, 21), (568, 568, 21), (16, 16, 21, 21), 8),
}


class TestTableI:
    def test_six_layers_in_paper_order(self):
        assert layer_names() == list(EXPECTED_ROWS)

    @pytest.mark.parametrize("name", list(EXPECTED_ROWS))
    def test_layer_shapes_exact(self, name):
        layer = get_layer(name)
        inp, out, kernel, stride = EXPECTED_ROWS[name]
        assert layer.spec.input_shape == inp
        assert layer.spec.output_shape == out
        assert layer.spec.kernel_shape == kernel
        assert layer.spec.stride == stride

    def test_networks_and_datasets(self):
        assert get_layer("GAN_Deconv1").network == "DCGAN"
        assert get_layer("GAN_Deconv1").dataset == "LSUN"
        assert get_layer("GAN_Deconv3").network == "SNGAN"
        assert get_layer("FCN_Deconv2").dataset == "PASCAL VOC"

    def test_unknown_layer_raises(self):
        with pytest.raises(KeyError):
            get_layer("GAN_Deconv9")

    def test_table_row_format(self):
        row = get_layer("GAN_Deconv1").table_row()
        assert row[0] == "GAN_Deconv1"
        assert row[3] == "(8, 8, 512)"
        assert row[-1] == 2

    def test_padding_solutions(self):
        """Padding derived from Table I output sizes (PyTorch convention)."""
        assert get_layer("GAN_Deconv1").spec.padding == 2
        assert get_layer("GAN_Deconv1").spec.output_padding == 1
        assert get_layer("GAN_Deconv3").spec.padding == 1
        assert get_layer("FCN_Deconv1").spec.padding == 0
        assert get_layer("FCN_Deconv2").spec.padding == 0

    def test_fcn2_needs_256_sub_crossbars_unfolded(self):
        spec = get_layer("FCN_Deconv2").spec
        assert spec.num_kernel_taps == 256
        assert spec.stride**2 == 64
