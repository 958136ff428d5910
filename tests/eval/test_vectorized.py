"""The vectorized analytic plane against the scalar per-job oracle.

The ISSUE-4 acceptance property: for every registered design (including
RED with ``fold='auto'``) and random (spec, fold, tech) draws, the
struct-of-arrays evaluator returns ``DesignMetrics`` that are float64
**bit-identical** (pickle-byte equal) to the scalar path — and
:func:`repro.eval.parallel.run_design_jobs` routes through the plane by
default with no observable behavior change.
"""

import dataclasses
import pickle
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.api.registry as registry
import repro.eval.vectorized as vectorized_plane
from repro.api.registry import (
    available_designs,
    get_design,
    register_design,
    unregister_design,
)
from repro.arch.metrics_batch import PerfInputBatch
from repro.arch.perf_input import DecoderBank
from repro.arch.tech import default_tech
from repro.deconv.shapes import DeconvSpec
from repro.designs.zero_padding_design import ZeroPaddingDesign
from repro.errors import ParameterError
from repro.eval.parallel import DesignJob, evaluate_design_job, run_design_jobs
from repro.eval.vectorized import evaluate_design_jobs_batch
from tests.conftest import SMALL_SPECS, deconv_specs

_SETTINGS = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Fold draws covering the design default, explicit auto, and concrete
#: Eq. 2 folds (ignored by the designs without the parameter).
folds = st.sampled_from((None, "auto", 1, 2, 3, 8))

#: Tech draws perturbing both format knobs and analog constants.
techs = st.sampled_from(
    (
        default_tech(),
        default_tech().with_overrides(mux_share=4),
        default_tech().with_overrides(bits_input=4, t_adc=0.75e-9),
        default_tech().with_overrides(differential=False, e_dec_per_row=4.5e-12),
    )
)


def _bytes(metrics_list):
    return [pickle.dumps(m, 5) for m in metrics_list]


class TwoBankDesign(ZeroPaddingDesign):
    """Zero-padding geometry split over two decoder banks."""

    name = "two-bank"

    def perf_input(self, layer_name: str = ""):
        perf = super().perf_input(layer_name)
        rows = perf.decoder_banks[0].rows
        return dataclasses.replace(
            perf,
            decoder_banks=(
                DecoderBank(rows=rows, count=1),
                DecoderBank(rows=-(-rows // 2), count=2),
            ),
        )


def _two_bank_perf_batch(arrays, folds, tech, layer_names):
    columns = [getattr(arrays, field.name).tolist() for field in dataclasses.fields(arrays)]
    return PerfInputBatch.from_perf_inputs(
        [
            TwoBankDesign(DeconvSpec(*row), tech).perf_input(name)
            for row, name in zip(zip(*columns), layer_names)
        ]
    )


@contextmanager
def two_bank_design():
    """A plugin design whose batch hook goes through ``from_perf_inputs``."""
    register_design("two-bank", perf_batch=_two_bank_perf_batch)(TwoBankDesign)
    try:
        yield
    finally:
        unregister_design("two-bank")


#: Two technologies, so one call holds two fused batches.
MIX_TECHS = (default_tech(), default_tech().with_overrides(mux_share=4, t_adc=0.75e-9))

#: Every built-in (one through an alias) plus the two-bank plugin.
mixed_jobs = st.lists(
    st.tuples(
        deconv_specs(max_input=5, max_kernel=6, max_stride=4),
        st.sampled_from(("zero-padding", "padding-free", "RED", "red", "two-bank")),
        folds,
        st.sampled_from(MIX_TECHS),
    ),
    min_size=1,
    max_size=10,
)


class TestBitIdentityProperty:
    @given(spec=deconv_specs(max_input=6, max_kernel=6, max_stride=4),
           fold=folds, tech=techs)
    @settings(**_SETTINGS)
    def test_plane_matches_oracle_across_all_designs(self, spec, fold, tech):
        jobs = [
            DesignJob(design, spec, tech, fold=fold, layer_name=f"L-{design}")
            for design in available_designs()
        ]
        vectorized = evaluate_design_jobs_batch(jobs)
        scalar = [evaluate_design_job(job) for job in jobs]
        assert _bytes(vectorized) == _bytes(scalar)

    @given(spec=deconv_specs(max_input=5, max_kernel=8, max_stride=4))
    @settings(**_SETTINGS)
    def test_red_auto_fold_matches_oracle(self, spec):
        """RED's 'auto' fold resolution must vectorize identically."""
        tech = default_tech()
        job = DesignJob("RED", spec, tech, fold="auto", layer_name="auto")
        assert _bytes(evaluate_design_jobs_batch([job])) == _bytes(
            [evaluate_design_job(job)]
        )

    @given(draws=mixed_jobs)
    @example(draws=[
        (SMALL_SPECS[0], "two-bank", None, MIX_TECHS[0]),
        (SMALL_SPECS[1], "RED", 2, MIX_TECHS[0]),
        (SMALL_SPECS[2], "padding-free", None, MIX_TECHS[1]),
    ])
    @settings(**_SETTINGS)
    def test_results_do_not_depend_on_batch_company(self, draws):
        """Each job of one fused call equals the job alone and the oracle,
        across designs, folds, two technologies and a two-bank plugin
        (whose batches pad the built-ins' single decoder bank)."""
        with two_bank_design():
            jobs = [
                DesignJob(design, spec, tech, fold=fold, layer_name=f"L{index}")
                for index, (spec, design, fold, tech) in enumerate(draws)
            ]
            together = evaluate_design_jobs_batch(jobs)
            alone = [evaluate_design_jobs_batch([job])[0] for job in jobs]
            oracle = [evaluate_design_job(job) for job in jobs]
        assert _bytes(together) == _bytes(alone)
        assert _bytes(together) == _bytes(oracle)

    def test_run_design_jobs_routes_match_over_the_spec_zoo(self):
        tech = default_tech()
        jobs = [
            DesignJob(design, spec, tech, layer_name=f"{design}-{index}")
            for index, spec in enumerate(SMALL_SPECS)
            for design in available_designs()
        ]
        assert _bytes(run_design_jobs(jobs)) == _bytes(
            run_design_jobs(jobs, vectorized=False)
        )


class TestPlaneSemantics:
    def test_result_order_and_labels_preserved(self):
        tech = default_tech()
        jobs = [
            DesignJob("RED", SMALL_SPECS[2], tech, layer_name="b"),
            DesignJob("zero-padding", SMALL_SPECS[0], tech, layer_name="a"),
            DesignJob("RED", SMALL_SPECS[0], tech, layer_name="c"),
        ]
        results = evaluate_design_jobs_batch(jobs)
        assert [m.layer for m in results] == ["b", "a", "c"]
        assert [m.design for m in results] == ["RED", "zero-padding", "RED"]

    def test_aliases_resolve_to_canonical_names(self):
        tech = default_tech()
        canonical, aliased = evaluate_design_jobs_batch(
            [
                DesignJob("zero-padding", SMALL_SPECS[0], tech, layer_name="x"),
                DesignJob("zp", SMALL_SPECS[0], tech, layer_name="x"),
            ]
        )
        assert pickle.dumps(canonical, 5) == pickle.dumps(aliased, 5)

    def test_value_equal_tech_objects_share_a_group(self):
        tech_a = default_tech().with_overrides(mux_share=4)
        tech_b = default_tech().with_overrides(mux_share=4)
        assert tech_a is not tech_b
        jobs = [
            DesignJob("RED", SMALL_SPECS[0], tech_a, layer_name="a"),
            DesignJob("RED", SMALL_SPECS[0], tech_b, layer_name="b"),
        ]
        results = evaluate_design_jobs_batch(jobs)
        assert _bytes([m for m in results]) == _bytes(
            [evaluate_design_job(job) for job in jobs]
        )

    def test_mixed_techs_evaluated_per_group(self):
        tech_a = default_tech()
        tech_b = default_tech().with_overrides(t_adc=1.0e-9)
        jobs = [
            DesignJob("padding-free", SMALL_SPECS[1], tech_a, layer_name="a"),
            DesignJob("padding-free", SMALL_SPECS[1], tech_b, layer_name="b"),
        ]
        results = evaluate_design_jobs_batch(jobs)
        assert results[0].latency.total != results[1].latency.total
        assert _bytes(results) == _bytes([evaluate_design_job(job) for job in jobs])

    def test_invalid_fold_raises_parameter_error(self):
        job = DesignJob("RED", SMALL_SPECS[0], default_tech(), fold=0)
        with pytest.raises(ParameterError):
            evaluate_design_jobs_batch([job])
        with pytest.raises(ParameterError):
            evaluate_design_job(job)

    @pytest.mark.parametrize("vectorized", (True, False))
    def test_bool_fold_raises_parameter_error(self, vectorized):
        """fold=True is not fold 1 on either route: it would file the
        same result under a second store key."""
        tech = default_tech()
        bad = DesignJob("RED", SMALL_SPECS[0], tech, fold=True, layer_name="bad")
        with pytest.raises(ParameterError, match="fold must be"):
            if vectorized:
                evaluate_design_jobs_batch([bad])
            else:
                evaluate_design_job(bad)
        jobs = [DesignJob("RED", SMALL_SPECS[0], tech, fold=1, layer_name="ok"), bad]
        with pytest.raises(ParameterError, match="fold must be"):
            run_design_jobs(jobs, vectorized=vectorized)

    @pytest.mark.parametrize("use_cache", (False, True))
    def test_float_fold_never_borrows_an_int_twin_result(self, use_cache, tmp_path):
        """fold=2.0 is invalid; being value-equal to a valid fold=2 job
        in the same work list must not smuggle it past validation on
        either dedup route (in-memory tuple keys or on-disk job_key)."""
        tech = default_tech()
        jobs = [
            DesignJob("RED", SMALL_SPECS[0], tech, fold=2, layer_name="ok"),
            DesignJob("RED", SMALL_SPECS[0], tech, fold=2.0, layer_name="bad"),
        ]
        cache = str(tmp_path) if use_cache else None
        with pytest.raises(ParameterError):
            run_design_jobs(jobs, cache=cache)
        with pytest.raises(ParameterError):
            run_design_jobs(jobs, cache=cache, vectorized=False)


class TestFusedCalls:
    def test_one_evaluation_per_tech_and_one_hook_per_design(self, monkeypatch):
        """3 designs x 2 techs: 2 evaluate_perf_batch calls, 6 hook calls."""
        evaluations = []
        hook_calls = []
        evaluate = vectorized_plane.evaluate_perf_batch

        def counting_evaluate(batch, tech):
            evaluations.append((len(batch), tech))
            return evaluate(batch, tech)

        def counting(name, hook):
            def spy(arrays, folds, tech, layer_names):
                hook_calls.append((name, tech, len(arrays)))
                return hook(arrays, folds, tech, layer_names)

            return spy

        monkeypatch.setattr(vectorized_plane, "evaluate_perf_batch", counting_evaluate)
        for name in available_designs():
            entry = get_design(name)
            monkeypatch.setitem(
                registry._REGISTRY, name,
                dataclasses.replace(entry, perf_batch=counting(name, entry.perf_batch)),
            )
        jobs = [
            DesignJob(design, spec, tech, layer_name=f"{design}-{index}")
            for tech in MIX_TECHS
            for index, spec in enumerate(SMALL_SPECS[:3])
            for design in available_designs()
        ]
        results = evaluate_design_jobs_batch(jobs[::-1])
        assert evaluations == [(9, MIX_TECHS[1]), (9, MIX_TECHS[0])]
        assert sorted(
            (name, MIX_TECHS.index(tech), rows) for name, tech, rows in hook_calls
        ) == sorted(
            (name, tech, 3) for name in available_designs() for tech in (0, 1)
        )
        assert _bytes(results) == _bytes(
            [evaluate_design_job(job) for job in jobs[::-1]]
        )

    def test_hook_returning_the_wrong_row_count_is_refused(self):
        """A short plugin batch would shift every later design's rows."""

        def short_hook(arrays, folds, tech, layer_names):
            return PerfInputBatch.from_perf_inputs([])

        register_design("short-batch", perf_batch=short_hook)(TwoBankDesign)
        try:
            jobs = [
                DesignJob("short-batch", SMALL_SPECS[0], default_tech()),
                DesignJob("RED", SMALL_SPECS[0], default_tech()),
            ]
            with pytest.raises(ParameterError, match="returned 0 rows for 1 jobs"):
                evaluate_design_jobs_batch(jobs)
        finally:
            unregister_design("short-batch")


class TestScalarFallback:
    def test_design_without_hook_falls_back_to_scalar_path(self):
        """A plugin design with no perf_batch hook still evaluates."""

        @register_design("no-batch-design")
        class NoBatchDesign(ZeroPaddingDesign):
            name = "no-batch-design"

        try:
            assert get_design("no-batch-design").perf_batch is None
            tech = default_tech()
            jobs = [
                DesignJob("no-batch-design", SMALL_SPECS[0], tech, layer_name="p"),
                DesignJob("RED", SMALL_SPECS[0], tech, layer_name="q"),
            ]
            results = run_design_jobs(jobs)  # vectorized default
            assert [m.design for m in results] == ["no-batch-design", "RED"]
            assert _bytes(results) == _bytes(
                run_design_jobs(jobs, vectorized=False)
            )
            with pytest.raises(ParameterError):
                evaluate_design_jobs_batch([jobs[0]])
        finally:
            unregister_design("no-batch-design")

    def test_builtins_all_support_batch(self):
        for design in available_designs():
            assert get_design(design).perf_batch is not None
