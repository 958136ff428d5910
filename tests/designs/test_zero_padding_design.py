"""Tests for the zero-padding baseline design."""

import numpy as np
import pytest

from repro.deconv.reference import conv_transpose2d
from repro.designs.zero_padding_design import ZeroPaddingDesign
from repro.errors import ShapeError
from tests.conftest import integer_operands, random_operands


class TestFunctional:
    def test_matches_reference(self, small_spec):
        x, w = random_operands(small_spec)
        run = ZeroPaddingDesign(small_spec).run_functional(x, w)
        np.testing.assert_allclose(
            run.output, conv_transpose2d(x, w, small_spec), atol=1e-10
        )

    def test_cycles_equal_output_pixels(self, small_spec):
        x, w = random_operands(small_spec)
        run = ZeroPaddingDesign(small_spec).run_functional(x, w)
        assert run.cycles == small_spec.num_output_pixels

    def test_counters_account_for_redundancy(self, small_spec):
        from repro.deconv.analysis import useful_mac_count

        x = np.abs(random_operands(small_spec)[0]) + 1.0  # strictly non-zero
        _, w = random_operands(small_spec)
        run = ZeroPaddingDesign(small_spec).run_functional(x, w)
        measured = 1.0 - run.counters["nonzero_input_elements"] / run.counters["input_elements"]
        # Every scheduled MAC on an inserted zero is redundant.
        redundant = 1.0 - useful_mac_count(small_spec) / (
            small_spec.num_output_pixels
            * small_spec.num_kernel_taps
            * small_spec.in_channels
            * small_spec.out_channels
        )
        assert measured == pytest.approx(redundant, abs=1e-12)

    def test_shape_validation(self, small_spec):
        x, w = random_operands(small_spec)
        with pytest.raises(ShapeError):
            ZeroPaddingDesign(small_spec).run_functional(x[..., :0], w)


class TestQuantized:
    def test_exact_integer_deconvolution(self):
        from repro.deconv.shapes import DeconvSpec

        spec = DeconvSpec(3, 3, 4, 4, 4, 3, stride=2, padding=1)
        x, w = integer_operands(spec)
        run = ZeroPaddingDesign(spec).run_quantized(x, w)
        expected = conv_transpose2d(x.astype(float), w.astype(float), spec)
        np.testing.assert_array_equal(run.output, expected.astype(np.int64))

    def test_rejects_float_inputs(self, small_spec):
        x, w = random_operands(small_spec)
        with pytest.raises(ShapeError):
            ZeroPaddingDesign(small_spec).run_quantized(x, w)


class TestPerfInput:
    def test_geometry_matches_fig3a(self, small_spec):
        perf = ZeroPaddingDesign(small_spec).perf_input("unit")
        rows = small_spec.num_kernel_taps * small_spec.in_channels
        assert perf.cycles == small_spec.num_output_pixels
        assert perf.wordline_cols == small_spec.out_channels
        assert perf.bitline_rows == rows
        assert perf.rows_selected_per_cycle == rows
        assert perf.conv_values_per_cycle == small_spec.out_channels
        assert perf.col_periphery_sets == 1
        assert not perf.has_crop_unit

    def test_live_rows_consistent_with_useful_macs(self, small_spec):
        perf = ZeroPaddingDesign(small_spec).perf_input()
        assert perf.live_row_cycles_total == pytest.approx(
            perf.useful_macs / small_spec.out_channels
        )

    def test_measured_cycles_match_perf_model(self, small_spec):
        design = ZeroPaddingDesign(small_spec)
        x, w = random_operands(small_spec)
        assert design.run_functional(x, w).cycles == design.perf_input().cycles
