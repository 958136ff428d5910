"""Tests for the pixel-wise mapping (Eq. 1)."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.mapping import SubCrossbarTensor, build_sct, kernel_from_sct
from repro.deconv.modes import decompose_modes
from repro.errors import MappingError, ShapeError
from tests.conftest import deconv_specs, random_operands


class TestEq1:
    def test_equation_1_literally(self, small_spec):
        """SCT[c, m, i*KW + j] == W[i, j, c, m] for every index."""
        _, w = random_operands(small_spec)
        sct = build_sct(w, small_spec)
        kw_count = small_spec.kernel_width
        for i in range(small_spec.kernel_height):
            for j in range(kw_count):
                np.testing.assert_array_equal(
                    sct.data[:, :, i * kw_count + j], w[i, j, :, :]
                )

    def test_sub_crossbar_shape(self, small_spec):
        _, w = random_operands(small_spec)
        sct = build_sct(w, small_spec)
        sub = sct.sub_crossbar(0, 0)
        assert sub.shape == (small_spec.in_channels, small_spec.out_channels)

    def test_num_sub_crossbars(self, small_spec):
        _, w = random_operands(small_spec)
        sct = build_sct(w, small_spec)
        assert sct.data.shape == (
            small_spec.in_channels, small_spec.out_channels, small_spec.num_kernel_taps
        )

    def test_round_trip(self, small_spec):
        _, w = random_operands(small_spec)
        sct = build_sct(w, small_spec)
        np.testing.assert_array_equal(kernel_from_sct(sct), w)

    @given(deconv_specs())
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, spec):
        _, w = random_operands(spec, seed=11)
        np.testing.assert_array_equal(kernel_from_sct(build_sct(w, spec)), w)

    def test_wrong_kernel_shape_rejected(self, small_spec):
        _, w = random_operands(small_spec)
        with pytest.raises(ShapeError):
            build_sct(w[..., :1] if w.shape[-1] > 1 else w[:, :, :1, :], small_spec)

    def test_tensor_of_the_wrong_shape_rejected(self, small_spec):
        _, w = random_operands(small_spec)
        data = build_sct(w, small_spec).data
        with pytest.raises(MappingError, match="SCT shape"):
            SubCrossbarTensor(data=data[:, :, :-1], spec=small_spec)

    def test_tap_index_bounds(self, small_spec):
        _, w = random_operands(small_spec)
        sct = build_sct(w, small_spec)
        with pytest.raises(MappingError):
            sct.tap_index(small_spec.kernel_height, 0)

    def test_mode_groups_partition_taps(self, small_spec):
        _, w = random_operands(small_spec)
        sct = build_sct(w, small_spec)
        flat = sorted(
            sct.tap_index(kh, kw)
            for mode in decompose_modes(small_spec)
            for kh, kw in mode.taps
        )
        assert flat == list(range(small_spec.num_kernel_taps))
