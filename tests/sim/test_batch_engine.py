"""Equivalence tests: the batch engine vs per-job CycleEngine runs.

The ISSUE-1 contract: ``BatchEngine`` outputs, cycle counts and counters
must match per-job :class:`~repro.sim.engine.CycleEngine` runs *exactly*
(bit-identical outputs, equal counter dicts) across strides 1-4 and
folds ``{1, 'auto'}``.  Since ISSUE-3 the default path executes jobs
*fused* — same-``(spec, fold)`` jobs stacked into one batched matmul per
kernel tap — so these tests now gate the fused executor's float64
bit-identity; the float32 option is tolerance-tested separately.
"""

import numpy as np
import pytest

from repro.core.fold import choose_fold
from repro.deconv.reference import conv_transpose2d
from repro.deconv.shapes import DeconvSpec
from repro.errors import ParameterError, ShapeError
from repro.sim.batch import BatchEngine, BatchJob
from repro.sim.engine import CycleEngine
from tests.conftest import random_operands


def spec_for_stride(stride: int) -> DeconvSpec:
    """FCN-convention layer (K = 2s, p = s//2) at a small input size."""
    k = max(2 * stride, 2)
    return DeconvSpec(
        input_height=4, input_width=4, in_channels=3,
        kernel_height=k, kernel_width=k, out_channels=2,
        stride=stride, padding=stride // 2,
    )


STRIDES = (1, 2, 3, 4)


class TestBatchEquivalence:
    @pytest.mark.parametrize("fold", (1, "auto"))
    def test_matches_cycle_engine_exactly(self, fold):
        jobs = [
            BatchJob(spec_for_stride(s), fold=fold, seed=100 + s) for s in STRIDES
        ]
        engine = BatchEngine()
        batch = engine.run(jobs)
        assert batch.num_jobs == len(jobs)
        for job, result in zip(jobs, batch.results):
            x, w = engine.operands_for(job)
            reference = CycleEngine(job.spec, fold=result.fold).run(x, w)
            assert result.cycles == reference.cycles
            assert result.counters == reference.counters.as_dict()
            np.testing.assert_array_equal(result.output, reference.output)

    @pytest.mark.parametrize("stride", STRIDES)
    def test_auto_fold_resolution_matches_design_rule(self, stride):
        job = BatchJob(spec_for_stride(stride), fold="auto")
        result = BatchEngine(max_sub_crossbars=4).run([job]).results[0]
        assert result.fold == choose_fold(job.spec, 4)

    def test_explicit_operands_match_reference_math(self):
        spec = spec_for_stride(2)
        x, w = random_operands(spec, seed=7)
        batch = BatchEngine().run([BatchJob(spec, fold=2)], operands=[(x, w)])
        np.testing.assert_allclose(
            batch.results[0].output, conv_transpose2d(x, w, spec), atol=1e-10
        )

    def test_jobs_sharing_a_spec_reuse_one_schedule(self):
        """Same (spec, fold) twice: identical cycles/counters, distinct data."""
        spec = spec_for_stride(2)
        batch = BatchEngine().run(
            [BatchJob(spec, fold=1, seed=0), BatchJob(spec, fold=1, seed=1)]
        )
        first, second = batch.results
        assert first.cycles == second.cycles
        assert first.counters == second.counters
        assert not np.array_equal(first.output, second.output)

    def test_deterministic_across_runs(self):
        jobs = [BatchJob(spec_for_stride(s), fold="auto", seed=s) for s in STRIDES]
        a = BatchEngine().run(jobs)
        b = BatchEngine().run(jobs)
        for ra, rb in zip(a.results, b.results):
            np.testing.assert_array_equal(ra.output, rb.output)
            assert ra.counters == rb.counters

    def test_interleaved_groups_keep_job_order(self):
        """Fused grouping must not reorder results: jobs of two shapes
        interleaved come back in submission order, each bit-identical to
        its own per-job engine run."""
        spec_a, spec_b = spec_for_stride(2), spec_for_stride(3)
        jobs = [
            BatchJob(spec_a, seed=0), BatchJob(spec_b, seed=1),
            BatchJob(spec_a, seed=2), BatchJob(spec_b, seed=3),
            BatchJob(spec_a, seed=4),
        ]
        engine = BatchEngine()
        batch = engine.run(jobs)
        for job, result in zip(jobs, batch.results):
            assert result.job is job
            x, w = engine.operands_for(job)
            reference = CycleEngine(job.spec, fold=result.fold).run(x, w)
            np.testing.assert_array_equal(result.output, reference.output)

    def test_traced_fallback_matches_fused_results(self):
        """trace_limit > 0 takes the per-job path; same numbers out."""
        jobs = [BatchJob(spec_for_stride(2), seed=s) for s in (0, 1)]
        fused = BatchEngine().run(jobs)
        traced = BatchEngine(trace_limit=1000).run(jobs)
        for rf, rt in zip(fused.results, traced.results):
            np.testing.assert_array_equal(rf.output, rt.output)
            assert rf.counters == rt.counters
            assert rf.cycles == rt.cycles


class TestExecutionDtype:
    def test_float32_within_single_precision_tolerance(self):
        jobs = [BatchJob(spec_for_stride(s), seed=s) for s in STRIDES]
        exact = BatchEngine().run(jobs)
        approx = BatchEngine(dtype=np.float32).run(jobs)
        for re, ra in zip(exact.results, approx.results):
            assert ra.output.dtype == np.float32
            np.testing.assert_allclose(
                ra.output, re.output, rtol=1e-4, atol=1e-4
            )
            # Schedule-level observables are dtype-independent.
            assert ra.cycles == re.cycles
            assert ra.counters == re.counters

    def test_float64_is_default_and_bit_identical(self):
        job = BatchJob(spec_for_stride(2), seed=9)
        engine = BatchEngine()
        assert engine.dtype == np.float64
        x, w = engine.operands_for(job)
        np.testing.assert_array_equal(
            engine.run([job]).results[0].output,
            CycleEngine(job.spec, fold=1).run(x, w).output,
        )

    def test_non_float_dtype_rejected(self):
        with pytest.raises(ParameterError):
            BatchEngine(dtype=np.int32)

    def test_float32_with_tracing_rejected(self):
        """The traced fallback is float64-only; don't silently ignore."""
        with pytest.raises(ParameterError):
            BatchEngine(dtype=np.float32, trace_limit=100)

    def test_fused_outputs_own_their_memory(self):
        """Keeping one job's output must not pin the whole group arena."""
        results = BatchEngine().run(
            [BatchJob(spec_for_stride(2), seed=s) for s in range(3)]
        ).results
        for result in results:
            assert result.output.base is None


class TestBatchAggregates:
    def test_total_cycles_is_job_sum(self):
        jobs = [BatchJob(spec_for_stride(s)) for s in STRIDES]
        batch = BatchEngine().run(jobs)
        assert batch.total_cycles == sum(r.cycles for r in batch.results)

    def test_merged_counters_sum_per_job_counters(self):
        jobs = [BatchJob(spec_for_stride(s), seed=s) for s in (1, 2)]
        batch = BatchEngine().run(jobs)
        merged = batch.merged_counters()
        for name in ("sc_fire", "buffer_reads", "output_pixels"):
            assert merged.get(name) == sum(
                r.counters.get(name, 0) for r in batch.results
            )

    def test_summary_fields(self):
        batch = BatchEngine().run([BatchJob(spec_for_stride(2))])
        summary = batch.summary()
        assert summary["jobs"] == 1
        assert summary["total_cycles"] == batch.total_cycles
        assert summary["mean_cycles_per_job"] == batch.total_cycles
        assert summary["sc_fires"] > 0

    def test_summary_reports_grouping_efficiency(self):
        """Fold distribution and per-group job counts (ISSUE-3)."""
        spec_a, spec_b = spec_for_stride(2), spec_for_stride(3)
        batch = BatchEngine().run(
            [
                BatchJob(spec_a, fold=1, seed=0),
                BatchJob(spec_a, fold=1, seed=1),
                BatchJob(spec_a, fold=2, seed=2),
                BatchJob(spec_b, fold=1, seed=3),
            ]
        )
        summary = batch.summary()
        assert summary["fold_distribution"] == {1: 3, 2: 1}
        assert summary["num_groups"] == 3
        assert summary["group_sizes"] == [2, 1, 1]
        assert summary["mean_jobs_per_group"] == pytest.approx(4 / 3)
        assert batch.group_sizes() == {
            (spec_a, 1): 2,
            (spec_a, 2): 1,
            (spec_b, 1): 1,
        }


class TestBatchValidation:
    def test_empty_jobs_rejected(self):
        with pytest.raises(ParameterError):
            BatchEngine().run([])

    def test_operand_count_mismatch_rejected(self):
        spec = spec_for_stride(1)
        x, w = random_operands(spec)
        with pytest.raises(ShapeError):
            BatchEngine().run(
                [BatchJob(spec), BatchJob(spec)], operands=[(x, w)]
            )

    def test_bad_fold_rejected(self):
        with pytest.raises(ParameterError):
            BatchEngine().run([BatchJob(spec_for_stride(1), fold=0)])

    def test_wrong_operand_shapes_rejected(self):
        spec = spec_for_stride(2)
        x, w = random_operands(spec)
        with pytest.raises(ShapeError):
            BatchEngine().run([BatchJob(spec)], operands=[(x[:-1], w)])
        with pytest.raises(ShapeError):
            BatchEngine().run([BatchJob(spec)], operands=[(x, w[..., :-1])])

    def test_trace_disabled_on_hot_path_by_default(self):
        spec = spec_for_stride(2)
        batch = BatchEngine().run([BatchJob(spec)])
        # Counters are exact even with the trace disabled.
        run = CycleEngine(spec, fold=1).run(*BatchEngine().operands_for(BatchJob(spec)))
        assert batch.results[0].counters == run.counters.as_dict()
        assert run.trace.count("sc_fire") == run.counters.get("sc_fire")


class TestResolvedFold:
    def test_auto_resolves_against_the_sub_crossbar_budget(self):
        spec = DeconvSpec(4, 4, 2, 16, 16, 2, stride=8, padding=4)
        job = BatchJob(spec, fold="auto")
        assert job.resolved_fold() == choose_fold(spec) == 2
        assert job.resolved_fold(max_sub_crossbars=64) == choose_fold(spec, 64) == 4

    @pytest.mark.parametrize("fold", (1, 3))
    def test_an_explicit_fold_is_kept(self, fold):
        spec = DeconvSpec(4, 4, 2, 4, 4, 2, stride=2, padding=1)
        assert BatchJob(spec, fold=fold).resolved_fold() == fold
