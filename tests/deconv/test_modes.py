"""Tests for the computation-mode decomposition (Fig. 6)."""

import pytest
from hypothesis import given, settings

import repro.deconv.modes as modes_module
from repro.deconv.modes import (
    check_mode_partition,
    decompose_modes,
    mode_of_tap,
    num_nonempty_modes,
)
from repro.deconv.shapes import DeconvSpec
from repro.errors import ShapeError
from tests.conftest import deconv_specs


class TestModeCount:
    def test_stride2_has_four_modes(self):
        spec = DeconvSpec(4, 4, 1, 3, 3, 1, stride=2, padding=1)
        modes = decompose_modes(spec)
        assert len(modes) == 4

    def test_stride_s_has_s_squared_modes(self):
        for s in (1, 2, 3, 4):
            spec = DeconvSpec(4, 4, 1, 2 * s, 2 * s, 1, stride=s, padding=s // 2 if s > 1 else 0)
            assert len(decompose_modes(spec)) == s * s

    def test_paper_example_tap_counts(self):
        """Fig. 6: kernel 3x3, stride 2 -> modes with 4, 2, 2, 1 taps."""
        spec = DeconvSpec(4, 4, 1, 3, 3, 1, stride=2, padding=1)
        counts = sorted(mode.num_taps for mode in decompose_modes(spec))
        assert counts == [1, 2, 2, 4]

    def test_fcn_stride8_kernel16_uniform_modes(self):
        """K=16, s=8: 64 modes of exactly 4 taps (the paper's 256 SCs)."""
        spec = DeconvSpec(4, 4, 1, 16, 16, 1, stride=8, padding=0)
        modes = decompose_modes(spec)
        assert len(modes) == 64
        assert all(mode.num_taps == 4 for mode in modes)


class TestNonemptyModeCount:
    def test_closed_form_matches_decomposition(self, small_spec):
        expected = sum(1 for mode in decompose_modes(small_spec) if mode.taps)
        assert num_nonempty_modes(small_spec) == expected

    @given(deconv_specs(max_input=4, max_kernel=8, max_stride=6))
    @settings(max_examples=60, deadline=None)
    def test_closed_form_matches_decomposition_property(self, spec):
        expected = sum(1 for mode in decompose_modes(spec) if mode.taps)
        assert num_nonempty_modes(spec) == expected

    def test_kernel_smaller_than_stride_leaves_empty_modes(self):
        spec = DeconvSpec(3, 3, 2, 2, 2, 2, stride=4, padding=0)
        assert num_nonempty_modes(spec) == 4  # of stride^2 = 16 modes


class TestPartition:
    def test_partition_is_exact(self, small_spec):
        check_mode_partition(small_spec)

    @given(deconv_specs(max_stride=5, max_kernel=6))
    @settings(max_examples=60, deadline=None)
    def test_partition_is_exact_property(self, spec):
        check_mode_partition(spec)

    def test_kernel_smaller_than_stride_leaves_empty_modes(self):
        spec = DeconvSpec(3, 3, 1, 2, 2, 1, stride=4, padding=0)
        modes = decompose_modes(spec)
        assert len(modes) == 16
        assert sum(1 for m in modes if m.taps) == 4
        assert sum(m.num_taps for m in modes) == 4

    def test_modes_ordered_row_major(self, small_spec):
        modes = decompose_modes(small_spec)
        phases = [(m.phase_y, m.phase_x) for m in modes]
        s = small_spec.stride
        assert phases == [(py, px) for py in range(s) for px in range(s)]


class TestModeOfTap:
    def test_tap_phase_relation(self, small_spec):
        """Tap (kh, kw) serves outputs with oy = s*ih + kh - p."""
        s, p = small_spec.stride, small_spec.padding
        for kh in range(small_spec.kernel_height):
            for kw in range(small_spec.kernel_width):
                phy, phx = mode_of_tap(kh, kw, small_spec)
                # An output row oy reachable from tap kh has residue
                # (kh - p) mod s.
                assert phy == (kh - p) % s
                assert phx == (kw - p) % s

    def test_out_of_range_tap_raises(self, small_spec):
        with pytest.raises(ShapeError):
            mode_of_tap(small_spec.kernel_height, 0, small_spec)
        with pytest.raises(ShapeError):
            mode_of_tap(0, -1, small_spec)

    def test_consistent_with_decomposition(self, small_spec):
        modes = decompose_modes(small_spec)
        for mode in modes:
            for kh, kw in mode.taps:
                assert mode_of_tap(kh, kw, small_spec) == (mode.phase_y, mode.phase_x)


class TestMaxTaps:
    def test_bound_is_ceil_k_over_s_squared(self, small_spec):
        import math

        bound = math.ceil(small_spec.kernel_height / small_spec.stride) * math.ceil(
            small_spec.kernel_width / small_spec.stride
        )
        assert max(mode.num_taps for mode in decompose_modes(small_spec)) <= bound

    def test_stride1_single_mode_holds_all_taps(self):
        spec = DeconvSpec(4, 4, 1, 3, 3, 1, stride=1, padding=1)
        assert [mode.num_taps for mode in decompose_modes(spec)] == [9]


class TestPartitionCheckFires:
    SPEC = DeconvSpec(4, 4, 1, 3, 3, 1, stride=2, padding=1)

    def test_a_tap_in_two_modes_is_rejected(self, monkeypatch):
        modes = decompose_modes(self.SPEC)
        monkeypatch.setattr(
            modes_module, "decompose_modes", lambda spec: [*modes, modes[0]]
        )
        with pytest.raises(ShapeError, match="appears in two computation modes"):
            check_mode_partition(self.SPEC)

    def test_a_missing_tap_is_rejected(self, monkeypatch):
        modes = decompose_modes(self.SPEC)
        monkeypatch.setattr(modes_module, "decompose_modes", lambda spec: modes[1:])
        with pytest.raises(ShapeError, match="modes cover 8 taps, kernel has 9"):
            check_mode_partition(self.SPEC)
