"""Tests for the zero-skipping data flow (Fig. 5c)."""

import pytest
from hypothesis import given, settings

from repro.core.dataflow import ZeroSkippingSchedule, red_cycle_count
from repro.deconv.analysis import useful_mac_count
from repro.deconv.shapes import DeconvSpec
from repro.errors import ScheduleError
from tests.conftest import deconv_specs


class TestCycleCount:
    def test_paper_example_4x_parallelism(self):
        """GAN-style stride-2: OH*OW/4 rounds (Fig. 5c)."""
        spec = DeconvSpec(8, 8, 4, 5, 5, 4, stride=2, padding=2, output_padding=1)
        assert spec.output_height == 16
        assert red_cycle_count(spec) == 64 == spec.num_output_pixels // 4

    def test_fcn2_folded_round_count(self):
        spec = DeconvSpec(70, 70, 21, 16, 16, 21, stride=8, padding=0)
        assert red_cycle_count(spec, fold=2) == 2 * 71 * 71

    def test_fold_multiplies_rounds(self, small_spec):
        assert red_cycle_count(small_spec, 2) == 2 * red_cycle_count(small_spec, 1)

    def test_rejects_bad_fold(self, small_spec):
        with pytest.raises(ScheduleError):
            red_cycle_count(small_spec, 0)

    @given(deconv_specs())
    @settings(max_examples=40, deadline=None)
    def test_round_count_bounds(self, spec):
        rounds = red_cycle_count(spec)
        s = spec.stride
        blocks_y = -(-spec.output_height // s)
        blocks_x = -(-spec.output_width // s)
        assert rounds == blocks_y * blocks_x
        # Each block dimension is the tight ceiling of output/stride.
        assert s * (blocks_y - 1) < spec.output_height <= s * blocks_y
        assert s * (blocks_x - 1) < spec.output_width <= s * blocks_x


class TestSchedule:
    def test_every_output_produced_exactly_once(self, small_spec):
        ZeroSkippingSchedule(small_spec).coverage_check()

    @given(deconv_specs())
    @settings(max_examples=30, deadline=None)
    def test_coverage_property(self, spec):
        ZeroSkippingSchedule(spec).coverage_check()

    def test_assignments_reference_valid_pixels(self, small_spec):
        schedule = ZeroSkippingSchedule(small_spec)
        for slot in schedule.cycles():
            for (kh, kw), (ih, iw) in slot.assignments.items():
                assert 0 <= kh < small_spec.kernel_height
                assert 0 <= kw < small_spec.kernel_width
                assert 0 <= ih < small_spec.input_height
                assert 0 <= iw < small_spec.input_width

    def test_assignments_satisfy_scatter_relation(self, small_spec):
        """Tap (kh,kw) with pixel (ih,iw) must land on this block's output."""
        s, p = small_spec.stride, small_spec.padding
        schedule = ZeroSkippingSchedule(small_spec)
        for slot in schedule.cycles():
            outputs = {(oy, ox) for oy, ox, _ in slot.outputs}
            for (kh, kw), (ih, iw) in slot.assignments.items():
                oy, ox = s * ih + kh - p, s * iw + kw - p
                assert (oy, ox) in outputs

    def test_sub_crossbar_used_at_most_once_per_cycle(self, small_spec):
        schedule = ZeroSkippingSchedule(small_spec)
        for slot in schedule.cycles():
            taps = list(slot.assignments)
            assert len(taps) == len(set(taps))

    def test_num_blocks(self):
        spec = DeconvSpec(16, 16, 2, 4, 4, 2, stride=2, padding=0)
        schedule = ZeroSkippingSchedule(spec)
        assert schedule.num_blocks == (17, 17)  # output 34x34

    def test_out_of_range_block_rejected(self, small_spec):
        schedule = ZeroSkippingSchedule(small_spec)
        by, bx = schedule.num_blocks
        with pytest.raises(ScheduleError):
            schedule.cycle(by, 0)

    def test_distinct_inputs_bounded_by_taps(self, small_spec):
        schedule = ZeroSkippingSchedule(small_spec)
        for slot in schedule.cycles():
            assert len(slot.distinct_inputs) <= small_spec.num_kernel_taps

    def test_active_sub_crossbars_perform_exactly_the_useful_macs(self, small_spec):
        # Zero skipping: every sub-crossbar activation multiplies a live
        # input, and every live (input, tap) product is scheduled once.
        schedule = ZeroSkippingSchedule(small_spec)
        activations = sum(len(slot.assignments) for slot in schedule.cycles())
        per_activation = small_spec.in_channels * small_spec.out_channels
        assert activations * per_activation == useful_mac_count(small_spec)

    def test_outputs_per_cycle_at_most_stride_squared(self, small_spec):
        schedule = ZeroSkippingSchedule(small_spec)
        for slot in schedule.cycles():
            assert len(slot.outputs) <= small_spec.stride**2


class TestScheduleSelfChecks:
    """The schedule's own consistency checks fire on a broken schedule."""

    SPEC = DeconvSpec(4, 4, 1, 4, 4, 1, stride=2, padding=1)

    def test_a_mode_listed_twice_double_books_its_taps(self):
        schedule = ZeroSkippingSchedule(self.SPEC)
        schedule.modes = [*schedule.modes, schedule.modes[0]]
        with pytest.raises(ScheduleError, match="double-booked"):
            schedule.cycle(1, 1)

    def test_coverage_check_rejects_a_pixel_produced_twice(self):
        schedule = ZeroSkippingSchedule(self.SPEC)
        first = schedule.cycle(0, 0)
        schedule.cycles = lambda: iter([first, first])
        with pytest.raises(ScheduleError, match="produced twice"):
            schedule.coverage_check()

    def test_coverage_check_rejects_missing_pixels(self):
        schedule = ZeroSkippingSchedule(self.SPEC)
        schedule.cycles = lambda: iter([schedule.cycle(0, 0)])
        with pytest.raises(ScheduleError, match="covers 4 output pixels, expected 64"):
            schedule.coverage_check()
