"""The analytic memo in front of every ``RedService``'s design runner.

A memo hit must be indistinguishable from recomputing the job: the same
pickle bytes, the requesting job's label, in any call order, at any
capacity and across evictions.  Only rows a runner returned are stored,
and only rows packed bytes restore exactly.
"""

import gc
import json
import pickle
import threading
from collections import OrderedDict

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.api.registry import available_designs
from repro.api.schema import EvaluationRequest, SweepRequest
from repro.api.service import MEMO_CAPACITY, RedService, _MetricsMemo
from repro.arch.tech import default_tech
from repro.core.red_design import REDDesign
from repro.deconv.shapes import DeconvSpec
from repro.designs.zero_padding_design import ZeroPaddingDesign
from repro.errors import InjectedFaultError
from repro.eval.parallel import DesignJob, metrics_keys, run_design_jobs

TECH = default_tech()
#: Value-equal to ``TECH`` but a distinct object.
TECH_COPY = TECH.with_overrides()
TECHS = (TECH, TECH_COPY, TECH.with_overrides(mux_share=4))
SPECS = (
    DeconvSpec(4, 4, 3, 4, 4, 2, stride=2, padding=1),
    DeconvSpec(3, 3, 8, 4, 4, 4, stride=2, padding=1),
    DeconvSpec(5, 5, 4, 6, 6, 2, stride=3, padding=1),
)
#: Canonical names and aliases, in several spellings.
DESIGNS = ("RED", "red", "zero-padding", "zp", "padding-free", "padding_free")
FOLDS = (None, "auto", 1, 2)
#: Labels, each value a single object, so equal labels are identical.
#: Three equal a design name: RED's (one interned string everywhere),
#: the zero-padding string the design's rows carry, and the registry's
#: padding-free string, a different object from the one its rows carry
#: (pickle writes a label identical to the row's design string as a
#: back-reference, so a rebuilt row must reuse the runner's string).
LABELS = (
    "",
    "L",
    REDDesign.name,
    ZeroPaddingDesign.name,
    next(name for name in available_designs() if name == "padding-free"),
)
SPEC = SPECS[0]

jobs_strategy = st.lists(
    st.builds(
        DesignJob,
        design=st.sampled_from(DESIGNS),
        spec=st.sampled_from(SPECS),
        tech=st.sampled_from(TECHS),
        fold=st.sampled_from(FOLDS),
        layer_name=st.sampled_from(LABELS),
    ),
    min_size=0,
    max_size=6,
)


def pickles(rows) -> list[bytes]:
    return [pickle.dumps(row, 5) for row in rows]


def wire(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def _job(design: str, spec: DeconvSpec = SPEC, label: str = "L") -> DesignJob:
    return DesignJob(design, spec, TECH, layer_name=label)


#: A padding-free repeat labelled with the registry's name string.
_DESIGN_STRING_REPEAT = [[_job("padding-free", label=LABELS[-1])]] * 2
#: At capacity 3: a hit refreshes A, so D evicts B and A still hits.
_RECENCY = [[_job("RED", spec) for spec in SPECS], [_job("RED")], [_job("zp")], [_job("RED")]]


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    calls=st.lists(jobs_strategy, min_size=1, max_size=6),
    capacity=st.sampled_from((0, 1, 3, 64)),
    vectorized=st.booleans(),
)
@example(calls=_DESIGN_STRING_REPEAT, capacity=1, vectorized=True)
@example(calls=_DESIGN_STRING_REPEAT, capacity=1, vectorized=False)
@example(calls=_RECENCY, capacity=3, vectorized=True)
def test_a_hit_pickles_like_the_recompute(calls, capacity, vectorized):
    memo = _MetricsMemo(capacity)
    model: OrderedDict = OrderedDict()  # the keys an LRU of this size holds
    for jobs in calls:
        sent = []

        def runner(batch, **kwargs):
            sent.append(list(batch))
            return run_design_jobs(batch, **kwargs)

        got = memo(runner, jobs, vectorized=vectorized)
        expected = run_design_jobs(jobs, vectorized=vectorized)
        assert pickles(got) == pickles(expected)
        assert [row.layer for row in got] == [job.layer_name for job in jobs]
        keys = metrics_keys(jobs)
        missing = [index for index, key in enumerate(keys) if key not in model]
        assert sent == ([[jobs[index] for index in missing]] if missing else [])
        for key in keys:  # hits move to the recent end, in job order
            if key in model:
                model.move_to_end(key)
        for index in missing if capacity else ():
            model[keys[index]] = None
            model.move_to_end(keys[index])
            if len(model) > capacity:
                model.popitem(last=False)
        assert len(memo) == len(model) <= capacity


def test_a_raising_runner_is_never_memoized_and_the_retry_recomputes():
    memo = _MetricsMemo(8)
    jobs = [DesignJob(design, SPEC, TECH, layer_name="L") for design in available_designs()]
    calls = []

    def failing(batch, **kwargs):
        calls.append(len(batch))
        raise InjectedFaultError("injected")

    def counting(batch, **kwargs):
        calls.append(len(batch))
        return run_design_jobs(batch, **kwargs)

    with pytest.raises(InjectedFaultError):
        memo(failing, jobs)
    assert len(memo) == 0
    assert pickles(memo(counting, jobs)) == pickles(run_design_jobs(jobs))
    assert calls == [3, 3]
    memo(counting, jobs)
    assert calls == [3, 3]  # the recompute was stored; the repeat hits


def test_rows_bytes_cannot_restore_are_recomputed_not_stored():
    # A technology override given as an int yields int breakdown values
    # (0 * cycles); a float zero yields floats.  The two compare equal
    # but print apart, so they never share an entry, and only the float
    # rows are stored.
    as_int = TECH.with_overrides(t_mux=0)
    as_float = TECH.with_overrides(t_mux=0.0)
    assert as_int == as_float
    memo = _MetricsMemo(8)
    for tech in (as_float, as_int, as_int, as_float):
        jobs = [DesignJob("RED", SPEC, tech, layer_name="L")]
        got = memo(run_design_jobs, jobs)
        assert pickles(got) == pickles(run_design_jobs(jobs))
        assert type(got[0].latency.mux) is type(tech.t_mux)
    assert len(memo) == 1


def test_memo_values_are_bytes_the_collector_does_not_track():
    memo = _MetricsMemo(16)
    jobs = [
        DesignJob(design, spec, TECH, layer_name="L")
        for design in available_designs()
        for spec in SPECS
    ]
    memo(run_design_jobs, jobs)
    values = list(memo._rows.values())
    assert len(values) == len(jobs)
    assert all(type(value) is bytes and not gc.is_tracked(value) for value in values)
    assert {len(value) for value in values} == {224}


def test_every_service_holds_a_bounded_memo_and_close_drops_it():
    service = RedService()
    assert service._memo.capacity == MEMO_CAPACITY == 4096
    service.evaluate(EvaluationRequest(spec=SPEC))
    assert len(service._memo) == 3
    service.close()
    assert len(service._memo) == 0


def test_a_repeat_under_another_label_calls_no_runner():
    calls = []

    def runner(jobs, **kwargs):
        calls.append(len(jobs))
        return run_design_jobs(jobs, **kwargs)

    with RedService(design_runner=runner) as service:
        first = service.evaluate(EvaluationRequest(spec=SPEC, layer_name="a"))
        second = service.evaluate(EvaluationRequest(spec=SPEC, layer_name="b"))
    with RedService() as fresh:
        expected = fresh.evaluate(EvaluationRequest(spec=SPEC, layer_name="b"))
    assert calls == [3]
    assert first.layer == "a" and second == expected


def test_eight_threads_of_handlers_answer_as_sequential_calls_do():
    requests = [
        SweepRequest(strides=strides, channels=channels)
        for strides in ((1, 2), (2, 4), (1, 2, 4))
        for channels in (8, 16)
    ] + [
        EvaluationRequest(spec=spec, layer_name=label)
        for spec in SPECS
        for label in ("a", "b")
    ]
    with RedService() as sequential:
        expected = [wire(sequential._handler_for(r)(r)) for r in requests]
    capacity = 7  # small, so threads evict each other's rows
    service = RedService()
    service._memo = _MetricsMemo(capacity)
    sizes, mismatches, errors = [], [], []
    start = threading.Barrier(8)

    def worker(offset: int) -> None:
        try:
            start.wait()
            for turn in range(3 * len(requests)):
                index = (offset + 5 * turn) % len(requests)
                request = requests[index]
                if wire(service._handler_for(request)(request)) != expected[index]:
                    mismatches.append(index)
                sizes.append(len(service._memo))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(offset,)) for offset in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    service.close()
    assert errors == [] and mismatches == []
    assert sizes and max(sizes) <= capacity
