"""Tests for the RED accelerator design."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.red_design import REDDesign
from repro.deconv.reference import conv_transpose2d
from repro.deconv.shapes import DeconvSpec
from repro.errors import ParameterError
from tests.conftest import deconv_specs, integer_operands, random_operands


class TestFunctionalEquivalence:
    def test_fast_path_matches_reference(self, small_spec):
        x, w = random_operands(small_spec)
        run = REDDesign(small_spec).run_functional(x, w)
        np.testing.assert_allclose(
            run.output, conv_transpose2d(x, w, small_spec), atol=1e-10
        )

    def test_cycle_accurate_matches_reference(self, small_spec):
        x, w = random_operands(small_spec)
        run = REDDesign(small_spec).run_cycle_accurate(x, w)
        np.testing.assert_allclose(
            run.output, conv_transpose2d(x, w, small_spec), atol=1e-10
        )

    @pytest.mark.parametrize("fold", [1, 2, 4])
    def test_folded_execution_exact(self, fold):
        spec = DeconvSpec(3, 3, 4, 4, 4, 3, stride=2, padding=1)
        x, w = random_operands(spec)
        run = REDDesign(spec, fold=fold).run_cycle_accurate(x, w)
        np.testing.assert_allclose(run.output, conv_transpose2d(x, w, spec), atol=1e-10)

    @given(deconv_specs())
    @settings(max_examples=25, deadline=None)
    def test_cycle_accurate_property(self, spec):
        x, w = random_operands(spec, seed=13)
        run = REDDesign(spec).run_cycle_accurate(x, w)
        np.testing.assert_allclose(run.output, conv_transpose2d(x, w, spec), atol=1e-10)

    def test_quantized_exact(self):
        spec = DeconvSpec(3, 3, 4, 4, 4, 3, stride=2, padding=1)
        x, w = integer_operands(spec)
        run = REDDesign(spec).run_quantized(x, w)
        expected = conv_transpose2d(x.astype(float), w.astype(float), spec)
        np.testing.assert_array_equal(run.output, expected.astype(np.int64))

    def test_quantized_folded_exact(self):
        spec = DeconvSpec(2, 2, 3, 4, 4, 2, stride=2, padding=1)
        x, w = integer_operands(spec)
        run = REDDesign(spec, fold=2).run_quantized(x, w)
        expected = conv_transpose2d(x.astype(float), w.astype(float), spec)
        np.testing.assert_array_equal(run.output, expected.astype(np.int64))


class TestGeometry:
    def test_auto_fold_fcn2(self):
        spec = DeconvSpec(70, 70, 21, 16, 16, 21, stride=8, padding=0)
        design = REDDesign(spec)
        assert design.fold == 2
        assert design.num_physical_scs == 128
        assert design.cycles == 2 * 71 * 71

    def test_gan_unfolded(self):
        spec = DeconvSpec(8, 8, 8, 5, 5, 8, stride=2, padding=2, output_padding=1)
        design = REDDesign(spec)
        assert design.fold == 1
        assert design.num_physical_scs == 25
        assert design.cycles == 64

    def test_invalid_fold_rejected(self, small_spec):
        with pytest.raises(ParameterError):
            REDDesign(small_spec, fold=0)
        with pytest.raises(ParameterError):
            REDDesign(small_spec, fold="half")

    def test_measured_cycles_match_perf_model(self, small_spec):
        design = REDDesign(small_spec)
        x, w = random_operands(small_spec)
        run = design.run_cycle_accurate(x, w)
        assert run.cycles == design.perf_input().cycles == design.cycles


class TestPerfInput:
    def test_sub_crossbar_rows(self, small_spec):
        perf = REDDesign(small_spec).perf_input("unit")
        assert perf.rows_selected_per_cycle >= (
            small_spec.num_kernel_taps * small_spec.in_channels
        )
        assert perf.wordline_cols == small_spec.out_channels

    def test_broadcast_instances_equal_physical_scs(self, small_spec):
        design = REDDesign(small_spec)
        perf = design.perf_input()
        assert perf.broadcast_instances == design.num_physical_scs
        assert perf.row_bank_instances == design.num_physical_scs

    def test_live_rows_match_zero_padding(self, small_spec):
        """The 'similar array energy' invariant: live WL activity equals
        the zero-padding design's."""
        from repro.designs.zero_padding_design import ZeroPaddingDesign

        red = REDDesign(small_spec).perf_input()
        zp = ZeroPaddingDesign(small_spec).perf_input()
        assert red.live_row_cycles_total == pytest.approx(zp.live_row_cycles_total)

    def test_conversions_match_zero_padding_totals(self, small_spec):
        """Mode groups share ADCs: total conversions equal ZP's when the
        kernel covers all modes and no folding is needed."""
        from repro.designs.zero_padding_design import ZeroPaddingDesign

        if small_spec.kernel_height < small_spec.stride:
            pytest.skip("kernel smaller than stride leaves empty modes")
        red = REDDesign(small_spec, fold=1).perf_input()
        zp = ZeroPaddingDesign(small_spec).perf_input()
        red_total = red.cycles * red.conv_values_per_cycle
        zp_total = zp.cycles * zp.conv_values_per_cycle
        # Equal up to block-grid rounding: RED converts per block even for
        # border blocks whose trailing phases fall outside the output.
        s = small_spec.stride
        ceiling = red.cycles * s * s * small_spec.out_channels
        assert zp_total <= red_total <= ceiling

    def test_fold_halves_conversion_rate(self):
        spec = DeconvSpec(70, 70, 21, 16, 16, 21, stride=8, padding=0)
        unfolded = REDDesign(spec, fold=1).perf_input()
        folded = REDDesign(spec, fold=2).perf_input()
        assert folded.conv_values_per_cycle == pytest.approx(
            unfolded.conv_values_per_cycle / 2
        )


class TestCounters:
    def test_buffer_reads_bounded_by_input_reuse(self, small_spec):
        x, w = random_operands(small_spec)
        run = REDDesign(small_spec).run_cycle_accurate(x, w)
        blocks = run.cycles // REDDesign(small_spec).fold
        assert run.counters["buffer_reads"] <= blocks * small_spec.num_kernel_taps

    def test_sc_matvec_count_equals_live_assignments(self, small_spec):
        x, w = random_operands(small_spec)
        design = REDDesign(small_spec)
        run = design.run_cycle_accurate(x, w)
        from repro.core.dataflow import ZeroSkippingSchedule

        expected = sum(
            len(slot.assignments) for slot in ZeroSkippingSchedule(small_spec).cycles()
        )
        assert run.counters["sc_matvecs"] == expected


#: Layers where a whole kernel row scatters outside the output, so RED's
#: runs skip that row and some schedule taps get no live input.
BORDER_HEAVY = (
    DeconvSpec(1, 1, 2, 3, 3, 2, stride=1, padding=1),
    DeconvSpec(2, 2, 2, 5, 5, 3, stride=2, padding=3),
    DeconvSpec(1, 2, 2, 3, 5, 2, stride=2, padding=1),
)


def _dead_kernel_rows(spec):
    s, p = spec.stride, spec.padding
    return [
        kh
        for kh in range(spec.kernel_height)
        if not any(0 <= ih * s + kh - p < spec.output_height for ih in range(spec.input_height))
    ]


class TestBorderHeavyLayers:
    @pytest.mark.parametrize("spec", BORDER_HEAVY, ids=lambda spec: spec.describe())
    def test_functional_run_matches_reference(self, spec):
        assert _dead_kernel_rows(spec)
        x, w = random_operands(spec, seed=11)
        run = REDDesign(spec).run_functional(x, w)
        np.testing.assert_allclose(run.output, conv_transpose2d(x, w, spec), atol=1e-10)

    @pytest.mark.parametrize("fold", (1, 2))
    @pytest.mark.parametrize("spec", BORDER_HEAVY, ids=lambda spec: spec.describe())
    def test_cycle_accurate_run_matches_reference(self, spec, fold):
        x, w = random_operands(spec, seed=12)
        design = REDDesign(spec, fold=fold)
        run = design.run_cycle_accurate(x, w)
        np.testing.assert_allclose(run.output, conv_transpose2d(x, w, spec), atol=1e-10)
        assert run.cycles == design.cycles
