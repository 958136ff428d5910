"""Unit tests for the deconvolution shape algebra."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.deconv.analysis import useful_mac_count
from repro.deconv.shapes import DeconvSpec, SpecArrays, solve_padding
from repro.errors import ParameterError, ShapeError
from tests.conftest import SMALL_SPECS, deconv_specs


class TestOutputSize:
    def test_stride1_no_padding_is_full_convolution(self):
        spec = DeconvSpec(4, 4, 1, 3, 3, 1, stride=1, padding=0)
        assert spec.output_height == 6
        assert spec.output_width == 6

    def test_stride2_kernel4_pad1_doubles(self):
        spec = DeconvSpec(4, 4, 1, 4, 4, 1, stride=2, padding=1)
        assert spec.output_shape == (8, 8, 1)

    def test_output_padding_adds_one(self):
        base = DeconvSpec(4, 4, 1, 5, 5, 1, stride=2, padding=2)
        extra = DeconvSpec(4, 4, 1, 5, 5, 1, stride=2, padding=2, output_padding=1)
        assert extra.output_height == base.output_height + 1

    def test_rectangular_input(self):
        spec = DeconvSpec(3, 7, 2, 3, 3, 2, stride=2, padding=1)
        assert spec.output_height == (3 - 1) * 2 - 2 + 3
        assert spec.output_width == (7 - 1) * 2 - 2 + 3

    @given(deconv_specs())
    @settings(max_examples=60, deadline=None)
    def test_output_at_least_one(self, spec):
        assert spec.output_height >= 1
        assert spec.output_width >= 1

    def test_shapes_properties(self):
        spec = DeconvSpec(2, 3, 4, 5, 6, 7, stride=2, padding=1)
        assert spec.input_shape == (2, 3, 4)
        assert spec.kernel_shape == (5, 6, 4, 7)
        assert spec.output_shape[2] == 7
        assert spec.num_kernel_taps == 30
        assert spec.num_weights == 30 * 4 * 7
        assert spec.num_input_pixels == 6


class TestValidation:
    def test_rejects_zero_stride(self):
        with pytest.raises(ParameterError):
            DeconvSpec(4, 4, 1, 3, 3, 1, stride=0)

    def test_rejects_negative_padding(self):
        with pytest.raises(ParameterError):
            DeconvSpec(4, 4, 1, 3, 3, 1, stride=1, padding=-1)

    def test_rejects_padding_ge_kernel(self):
        with pytest.raises(ShapeError):
            DeconvSpec(4, 4, 1, 3, 3, 1, stride=2, padding=3)

    def test_rejects_output_padding_ge_stride(self):
        with pytest.raises(ShapeError):
            DeconvSpec(4, 4, 1, 3, 3, 1, stride=2, output_padding=2)

    def test_rejects_bool_dimensions(self):
        with pytest.raises(ParameterError):
            DeconvSpec(True, 4, 1, 3, 3, 1, stride=1)

    def test_rejects_non_positive_output(self):
        # 1x1 input, kernel 2, padding 1, stride 1 -> output 0.
        with pytest.raises(ShapeError):
            DeconvSpec(1, 1, 1, 2, 2, 1, stride=1, padding=1)


class TestPaddedGeometry:
    def test_sngan_padded_map_is_11x11(self):
        spec = DeconvSpec(4, 4, 1, 4, 4, 1, stride=2, padding=1)
        geom = spec.padded_geometry()
        assert (geom.height, geom.width) == (11, 11)
        assert geom.border_top == 2
        assert geom.stretched_height == 7

    def test_padded_conv_output_matches_spec(self, small_spec):
        geom = small_spec.padded_geometry()
        conv_h = geom.height - small_spec.kernel_height + 1
        conv_w = geom.width - small_spec.kernel_width + 1
        assert conv_h == small_spec.output_height
        assert conv_w == small_spec.output_width

    def test_output_padding_extends_bottom_right_only(self):
        spec = DeconvSpec(4, 4, 1, 5, 5, 1, stride=2, padding=2, output_padding=1)
        geom = spec.padded_geometry()
        assert geom.border_bottom == geom.border_top + 1
        assert geom.border_right == geom.border_left + 1

    def test_num_pixels(self):
        spec = DeconvSpec(4, 4, 1, 4, 4, 1, stride=2, padding=1)
        assert spec.padded_geometry().num_pixels == 121


class TestSolvePadding:
    @pytest.mark.parametrize(
        "i,o,k,s,expected",
        [
            (8, 16, 5, 2, (2, 1)),   # GAN_Deconv1
            (4, 8, 5, 2, (2, 1)),    # GAN_Deconv2
            (4, 8, 4, 2, (1, 0)),    # GAN_Deconv3
            (6, 12, 4, 2, (1, 0)),   # GAN_Deconv4
            (16, 34, 4, 2, (0, 0)),  # FCN_Deconv1
            (70, 568, 16, 8, (0, 0)),  # FCN_Deconv2
        ],
    )
    def test_table1_solutions(self, i, o, k, s, expected):
        assert solve_padding(i, o, k, s) == expected

    def test_unsolvable_raises(self):
        with pytest.raises(ShapeError):
            solve_padding(4, 100, 3, 2)

    def test_solution_reproduces_output(self):
        p, op = solve_padding(7, 15, 4, 2)
        spec = DeconvSpec(7, 7, 1, 4, 4, 1, stride=2, padding=p, output_padding=op)
        assert spec.output_height == 15

    @given(deconv_specs())
    @settings(max_examples=40, deadline=None)
    def test_solve_padding_round_trip(self, spec):
        """solve_padding recovers parameters consistent with the output."""
        p, op = solve_padding(
            spec.input_height, spec.output_height, spec.kernel_height, spec.stride
        )
        rebuilt = DeconvSpec(
            spec.input_height, spec.input_height, 1,
            spec.kernel_height, spec.kernel_height, 1,
            stride=spec.stride, padding=p, output_padding=op,
        )
        assert rebuilt.output_height == spec.output_height


class TestSpecArrays:
    def test_counts_mirror_the_scalar_properties(self):
        arrays = SpecArrays.from_specs(SMALL_SPECS)
        for name in (
            "output_height", "output_width", "num_input_pixels",
            "num_output_pixels", "num_kernel_taps", "num_weights",
        ):
            assert getattr(arrays, name).tolist() == [
                getattr(spec, name) for spec in SMALL_SPECS
            ]
        assert arrays.useful_macs.tolist() == [
            useful_mac_count(spec) for spec in SMALL_SPECS
        ]

    def test_split_slices_share_the_pack_counts(self):
        pack = SpecArrays.from_specs(SMALL_SPECS)
        parts = pack.split([2, 2, len(SMALL_SPECS)])
        assert [len(part) for part in parts] == [2, 0, len(SMALL_SPECS) - 2]
        for part, start in zip(parts, (0, 2, 2)):
            expected = SpecArrays.from_specs(SMALL_SPECS[start:start + len(part)])
            for name in ("input_height", "stride", "output_width", "useful_macs"):
                assert getattr(part, name).tolist() == getattr(expected, name).tolist()
        # A view of the pack's counts, not a recomputation over the slice.
        assert np.shares_memory(parts[2].useful_macs, pack.useful_macs)
