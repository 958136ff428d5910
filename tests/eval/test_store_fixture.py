"""Stores written by an earlier store layout stay readable.

``golden/store_v4/`` is a packed store at ``CACHE_SCHEMA_VERSION`` 4,
written when every publish was still split over 16 sharded segment
files (``seg-<shard>-<unique>.seg``): one ``run_design_jobs``, one
``run_cycle_jobs`` and one ``run_fidelity_jobs`` call over the jobs
below, each with the store as ``cache``.  It holds the Table-I layers'
metrics for the three designs registered when it was written, RED's
cycle stats for those layers and twelve fidelity points.

Every stored cycle trace and fidelity sample, relabelled to its job as
the runners serve it, must read back byte-identical to a fresh
recompute, both through the committed ``index.bin`` and after the index
is rebuilt from the self-describing segments.  Metrics live in a
store's memory tier only, under value keys: the fixture's metrics read
as misses without the index being touched, and the runner recomputes
them byte-identical to the bytes on disk.
"""

import pickle
import re
import shutil
from pathlib import Path

import pytest

from repro.arch.tech import default_tech
from repro.eval.parallel import (
    CACHE_SCHEMA_VERSION,
    CYCLES_KIND,
    FIDELITY_KIND,
    METRICS_KIND,
    DesignJob,
    FidelityJob,
    fidelity_job_keys,
    job_keys,
    metrics_keys,
    relabelled,
    run_cycle_jobs,
    run_design_jobs,
    run_fidelity_jobs,
)
from repro.eval.store import PackedSweepStore
from repro.workloads.specs import TABLE_I_LAYERS

FIXTURE = Path(__file__).parent / "golden" / "store_v4"
TECH = default_tech()
#: The registered designs the fixture was written for.
DESIGNS = ("zero-padding", "padding-free", "RED")


def design_jobs() -> list[DesignJob]:
    return [
        DesignJob(design, layer.spec, TECH, layer_name=layer.name)
        for layer in TABLE_I_LAYERS
        for design in DESIGNS
    ]


def cycle_jobs() -> list[DesignJob]:
    return [
        DesignJob("RED", layer.spec, TECH, layer_name=layer.name)
        for layer in TABLE_I_LAYERS
    ]


def fidelity_jobs() -> list[FidelityJob]:
    (fcn,) = [layer for layer in TABLE_I_LAYERS if layer.name == "FCN_Deconv1"]
    return [
        FidelityJob(
            design, fcn.spec, TECH, seed=seed, time_s=time_s, layer_name=fcn.name
        )
        for design in DESIGNS
        for seed in (0, 1)
        for time_s in (1.0, 86400.0)
    ]


#: Per persisted kind: the jobs the fixture was written from and their
#: runner.
PERSISTED = {
    CYCLES_KIND: (cycle_jobs, run_cycle_jobs),
    FIDELITY_KIND: (fidelity_jobs, run_fidelity_jobs),
}

#: Index rows, the legacy metrics included.
ENTRIES = len(design_jobs()) + sum(len(build()) for build, _ in PERSISTED.values())


@pytest.fixture(params=["index", "rebuilt"])
def fixture_store(request, tmp_path):
    directory = tmp_path / "store_v4"
    shutil.copytree(FIXTURE, directory)
    if request.param == "rebuilt":
        (directory / "index.bin").unlink()
    store = PackedSweepStore(directory)
    yield request.param, store
    store.close()


def test_fixture_holds_the_sharded_layout():
    names = sorted(path.name for path in FIXTURE.iterdir())
    assert names[0] == "index.bin"
    segments = names[1:]
    assert len(segments) > 3
    assert all(re.fullmatch(r"seg-[0-9a-f]{2}-\w+\.seg", name) for name in segments)
    assert CACHE_SCHEMA_VERSION == 4


@pytest.mark.parametrize("kind", sorted(PERSISTED))
def test_every_entry_reads_back_byte_identical(fixture_store, kind):
    route, store = fixture_store
    assert len(store) == ENTRIES
    assert store.rebuilt_entries == (ENTRIES if route == "rebuilt" else 0)
    build, recompute = PERSISTED[kind]
    jobs = build()
    keys = fidelity_job_keys(jobs) if kind == FIDELITY_KIND else job_keys(jobs, kind)
    stored = store.get_many(keys, kind)
    assert store.misses == 0 and store.corrupt == 0
    assert store.disk_hits == len(jobs)
    # A hit is served relabelled to the requesting job, as the runners
    # do (fidelity payloads are stored unlabelled).
    served = [relabelled(value, job.layer_name) for value, job in zip(stored, jobs)]
    assert [pickle.dumps(value) for value in served] == [
        pickle.dumps(value) for value in recompute(jobs)
    ]


def untouched(*args):
    raise AssertionError("a metrics probe read the store's index")


class UntouchableIndex(dict):
    """An index a metrics probe must never read."""

    get = __getitem__ = __contains__ = untouched


def test_legacy_metrics_read_as_misses_and_recompute_byte_identical(
    fixture_store, monkeypatch
):
    _, store = fixture_store
    jobs = design_jobs()
    legacy_keys = job_keys(jobs, METRICS_KIND)
    with store._lock:
        # The bytes an older store wrote, read straight off the segments.
        legacy = [
            pickle.loads(store._read_locked(store._index[bytes.fromhex(key)]))
            for key in legacy_keys
        ]
    monkeypatch.setattr(store, "_index", UntouchableIndex(store._index))
    monkeypatch.setattr(store, "_maybe_reload_index_locked", untouched)
    monkeypatch.setattr(store, "_read_locked", untouched)
    misses = [None] * len(jobs)
    assert store.get_many(legacy_keys, METRICS_KIND) == misses
    assert store.get_many(metrics_keys(jobs), METRICS_KIND) == misses
    recomputed = run_design_jobs(jobs, cache=store)
    assert (store.disk_hits, store.misses, store.corrupt) == (0, 3 * len(jobs), 0)
    served = [relabelled(value, job.layer_name) for value, job in zip(legacy, jobs)]
    assert [pickle.dumps(value) for value in recomputed] == [
        pickle.dumps(value) for value in served
    ]
