"""Cross-checks between measured activity and the closed-form perf model."""

import pytest

from repro.core.red_design import REDDesign
from repro.deconv.analysis import useful_mac_count
from repro.designs.padding_free_design import PaddingFreeDesign
from repro.designs.zero_padding_design import ZeroPaddingDesign
from repro.sim.engine import CycleEngine
from tests.conftest import integer_operands, random_operands


class TestCycleIdentities:
    def test_all_designs_measured_equals_modeled(self, small_spec):
        x, w = random_operands(small_spec)
        for design_cls in (ZeroPaddingDesign, PaddingFreeDesign):
            design = design_cls(small_spec)
            assert design.run_functional(x, w).cycles == design.perf_input().cycles
        red = REDDesign(small_spec)
        assert red.run_cycle_accurate(x, w).cycles == red.perf_input().cycles


class TestMacConservation:
    def test_useful_macs_identical_across_designs(self, small_spec):
        """Every design performs exactly the same live multiplications."""
        zp = ZeroPaddingDesign(small_spec).perf_input()
        pf = PaddingFreeDesign(small_spec).perf_input()
        red = REDDesign(small_spec).perf_input()
        assert zp.useful_macs == pf.useful_macs == red.useful_macs

    def test_zero_padding_measured_useful_macs(self, small_spec):
        import numpy as np

        x = np.abs(random_operands(small_spec)[0]) + 1.0
        _, w = random_operands(small_spec)
        design = ZeroPaddingDesign(small_spec)
        run = design.run_functional(x, w)
        assert run.counters["macs_useful"] == design.perf_input().useful_macs

    def test_total_cells_identical_across_designs(self, small_spec):
        zp = ZeroPaddingDesign(small_spec).perf_input()
        pf = PaddingFreeDesign(small_spec).perf_input()
        red = REDDesign(small_spec).perf_input()
        assert zp.total_cells_logical == pf.total_cells_logical == red.total_cells_logical


class TestEngineVsModel:
    def test_live_rows_close_to_model(self, small_spec):
        """Engine-measured live rows match the perf model's live-row total
        (the model may count border-clipped rows the engine skips)."""
        x, w = random_operands(small_spec)
        engine_run = CycleEngine(small_spec).run(x, w)
        model = REDDesign(small_spec).perf_input()
        measured = engine_run.counters.get("live_rows")
        assert measured == pytest.approx(model.live_row_cycles_total, rel=1e-9)

    def test_output_pixels_match_spec(self, small_spec):
        x, w = random_operands(small_spec)
        run = CycleEngine(small_spec).run(x, w)
        assert run.counters.get("output_pixels") == small_spec.num_output_pixels


class TestReportedActivity:
    """The activity counters each functional run reports."""

    def test_zero_padding_schedules_the_dense_mac_count(self, small_spec):
        # Algorithm 1 multiplies every kernel tap at every output pixel.
        x, w = random_operands(small_spec)
        run = ZeroPaddingDesign(small_spec).run_functional(x, w)
        assert run.counters["macs_scheduled"] == (
            small_spec.num_output_pixels
            * small_spec.num_kernel_taps
            * small_spec.in_channels
            * small_spec.out_channels
        )
        assert run.counters["input_vectors"] == small_spec.num_output_pixels

    def test_padding_free_multiplies_every_pixel_by_the_whole_kernel(self, small_spec):
        x, w = random_operands(small_spec)
        run = PaddingFreeDesign(small_spec).run_functional(x, w)
        pixels = small_spec.num_input_pixels
        assert run.counters["input_vectors"] == pixels
        # One C-vector per input pixel against the KH*KW*M-wide kernel matrix.
        assert run.counters["macs_scheduled"] == pixels * small_spec.num_weights
        assert run.counters["overlap_add_values"] == run.counters["intermediate_values"]

    def test_red_functional_run_does_only_the_useful_macs(self, small_spec):
        x, w = random_operands(small_spec)
        design = REDDesign(small_spec)
        run = design.run_functional(x, w)
        assert run.counters["macs_useful"] == useful_mac_count(small_spec)
        assert run.counters["sub_crossbars"] == design.num_physical_scs
        assert run.counters["fold"] == design.fold

    @pytest.mark.parametrize("fold", (1, 2))
    def test_red_quantized_run_walks_the_float_schedule(self, small_spec, fold):
        x, w = integer_operands(small_spec)
        design = REDDesign(small_spec, fold=fold)
        quantized = design.run_quantized(x, w)
        exact = design.run_cycle_accurate(x.astype(float), w.astype(float))
        assert quantized.cycles == exact.cycles == design.cycles
        for name in ("sub_crossbars", "fold", "sc_matvecs", "live_rows", "buffer_reads"):
            assert quantized.counters[name] == exact.counters[name], name
