"""Tests for the instrumented cycle engine."""

import numpy as np
import pytest

from repro.core.red_design import REDDesign
from repro.deconv.reference import conv_transpose2d
from repro.deconv.shapes import DeconvSpec
from repro.errors import ShapeError
from repro.sim.engine import CycleEngine
from tests.conftest import random_operands


class TestEngine:
    def test_output_matches_reference(self, small_spec):
        x, w = random_operands(small_spec)
        run = CycleEngine(small_spec).run(x, w)
        np.testing.assert_allclose(
            run.output, conv_transpose2d(x, w, small_spec), atol=1e-10
        )

    def test_folded_output_matches(self):
        spec = DeconvSpec(3, 3, 4, 4, 4, 3, stride=2, padding=1)
        x, w = random_operands(spec)
        run = CycleEngine(spec, fold=2).run(x, w)
        np.testing.assert_allclose(run.output, conv_transpose2d(x, w, spec), atol=1e-10)

    def test_counters_match_design_counters(self, small_spec):
        """Engine observability agrees with REDDesign's own accounting."""
        x, w = random_operands(small_spec)
        design = REDDesign(small_spec)
        engine_run = CycleEngine(small_spec, fold=design.fold).run(x, w)
        design_run = design.run_cycle_accurate(x, w)
        assert engine_run.cycles == design_run.cycles
        assert engine_run.counters.get("sc_fire") == design_run.counters["sc_matvecs"]
        assert engine_run.counters.get("buffer_reads") == design_run.counters["buffer_reads"]

    def test_output_pixels_counter(self, small_spec):
        x, w = random_operands(small_spec)
        run = CycleEngine(small_spec).run(x, w)
        assert run.counters.get("output_pixels") == small_spec.num_output_pixels

    def test_trace_records_fires(self, small_spec):
        x, w = random_operands(small_spec)
        run = CycleEngine(small_spec).run(x, w)
        assert run.trace.count("sc_fire") == run.counters.get("sc_fire")

    def test_shape_validation(self, small_spec):
        x, w = random_operands(small_spec)
        with pytest.raises(ShapeError):
            CycleEngine(small_spec).run(x[..., :0], w)
        with pytest.raises(ShapeError, match="kernel shape"):
            CycleEngine(small_spec).run(x, w[..., :0])

    def test_live_rows_counter(self, small_spec):
        x, w = random_operands(small_spec)
        run = CycleEngine(small_spec).run(x, w)
        assert run.counters.get("live_rows") == (
            run.counters.get("sc_fire") * small_spec.in_channels
        )
