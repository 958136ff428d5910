"""The runners pause CPython's cycle collector and always restore it.

``_run_pipeline`` builds its keys or tokens and runs each compute
attempt with the collector paused; the store's ``get_many`` /
``put_many`` and the retry policy's backoff sleeps run outside the
pause.  Whatever happens inside, the collector's state after a runner
call equals its state before the call: on or off, when compute raises,
and when many threads run service handlers at once.
"""

import gc
import sys
import threading

import pytest

import repro.eval.vectorized as vectorized_plane
import repro.reram.batch as fidelity_sampler
from repro.api.schema import EvaluationRequest, FidelityRequest, SweepRequest
from repro.api.service import RedService
from repro.arch.tech import default_tech
from repro.deconv.shapes import DeconvSpec
from repro.errors import ShapeError
from repro.eval.parallel import (
    DesignJob,
    FidelityJob,
    _collector_paused,
    run_cycle_jobs,
    run_design_jobs,
    run_fidelity_jobs,
)
from repro.eval.store import PackedSweepStore
from repro.reliability.policy import RetryPolicy

SPEC = DeconvSpec(4, 4, 3, 4, 4, 2, stride=2, padding=1)
TECH = default_tech()
JOBS = [
    DesignJob(design, SPEC, TECH, layer_name=design)
    for design in ("RED", "zero-padding", "padding-free")
]
FIDELITY_JOBS = [
    FidelityJob("RED", SPEC, TECH, seed=seed, time_s=time_s, layer_name="L")
    for seed in (0, 1)
    for time_s in (1.0, 3600.0)
]
RUNNERS = {
    "design": (run_design_jobs, JOBS, vectorized_plane, "evaluate_design_jobs_batch"),
    "cycle": (run_cycle_jobs, JOBS, None, None),
    "fidelity": (run_fidelity_jobs, FIDELITY_JOBS, fidelity_sampler, "sample_fidelity_grid"),
}


@pytest.fixture(params=(True, False), ids=("collector-on", "collector-off"))
def collector(request):
    """The collector switched on or off for the test, restored after."""
    enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if enabled else gc.disable)()


class StateRecordingStore(PackedSweepStore):
    """Records the collector's state inside each store call."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = []

    def get_many(self, keys, kind):
        self.seen.append(("get_many", gc.isenabled()))
        return super().get_many(keys, kind)

    def put_many(self, entries, kind):
        self.seen.append(("put_many", gc.isenabled()))
        return super().put_many(entries, kind)


def spy_on_compute(monkeypatch, module, attr, seen: list, fail=None):
    """Record the collector's state when ``module.attr`` runs."""
    original = getattr(module, attr)

    def spy(*args, **kwargs):
        seen.append(("compute", gc.isenabled()))
        if fail is not None:
            raise fail
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, spy)


@pytest.mark.parametrize("with_store", (False, True), ids=("no-store", "store"))
@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_state_restored_and_store_calls_outside_the_pause(
    tmp_path, monkeypatch, collector, runner, with_store
):
    run, jobs, module, attr = RUNNERS[runner]
    seen = []
    if module is not None:
        spy_on_compute(monkeypatch, module, attr, seen)
    store = StateRecordingStore(tmp_path) if with_store else None
    results = run(jobs, cache=store)
    assert gc.isenabled() is collector
    assert len(results) == len(jobs)
    if module is not None:
        assert seen == [("compute", False)]  # compute ran paused
    if store is not None:
        # Cold: one probe and one publish, both outside the pause.
        assert store.seen == [("get_many", collector), ("put_many", collector)]


@pytest.mark.parametrize("runner", ("design", "fidelity"))
def test_state_restored_when_compute_raises(monkeypatch, collector, runner):
    run, jobs, module, attr = RUNNERS[runner]
    seen = []
    spy_on_compute(monkeypatch, module, attr, seen, fail=ShapeError("boom"))
    with pytest.raises(ShapeError):
        run(jobs)
    assert gc.isenabled() is collector
    assert seen == [("compute", False)]


def test_retry_backoff_sleeps_outside_the_pause(monkeypatch, collector):
    seen = []
    spy_on_compute(
        monkeypatch, vectorized_plane, "evaluate_design_jobs_batch", seen,
        fail=OSError("transient"),
    )
    policy = RetryPolicy(
        max_attempts=3, sleeper=lambda seconds: seen.append(("sleep", gc.isenabled()))
    )
    with pytest.raises(OSError):
        run_design_jobs(JOBS, retry_policy=policy)
    assert gc.isenabled() is collector
    assert seen == [
        ("compute", False), ("sleep", collector),
        ("compute", False), ("sleep", collector),
        ("compute", False),
    ]


def run_threads(target, count: int = 8) -> list:
    """``target(index)`` on ``count`` threads released together, switching
    as often as possible; returns what they raised."""
    barrier = threading.Barrier(count, timeout=60)
    errors = []

    def run(index: int) -> None:
        try:
            barrier.wait()
            target(index)
        except Exception as exc:  # reported to the caller, with its thread
            errors.append((index, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run, args=(i,)) for i in range(count)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    return errors


def test_eight_threads_of_handlers_leave_the_state_as_found(tmp_path, collector):
    with RedService(cache=PackedSweepStore(tmp_path)) as stored, RedService() as plain:

        def handlers(index: int) -> None:
            service = stored if index % 2 else plain
            for round_index in range(6):
                service.sweep(SweepRequest(strides=(2, 4), input_size=4 + index))
                service.evaluate(EvaluationRequest(spec=SPEC, trace=round_index % 2 == 0))
                service.fidelity_sweep(
                    FidelityRequest(spec=SPEC, designs=("RED",), seeds=(index,), times=(1.0,))
                )

        assert run_threads(handlers) == []
    assert gc.isenabled() is collector


def test_overlapping_pauses_never_leave_the_collector_off(collector):
    # Read-then-disable without the lock lets a pause that starts while
    # another thread's is ending read "off", disable after that thread's
    # re-enable, and never re-enable: most runs of this loop catch it.
    def pauses(index: int) -> None:
        for _ in range(300):
            _collector_paused(list, range(4))

    for _ in range(20):
        assert run_threads(pauses) == []
        assert gc.isenabled() is collector
