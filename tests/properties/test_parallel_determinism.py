"""Property-based determinism guarantees for the sweep runner.

The contract from ISSUE-1: :func:`repro.eval.parallel.run_design_jobs`
returns *byte-identical* results (compared via pickle) on a warm store
vs a cold store vs no store at all.
"""

import pickle
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.service import RedService
from repro.arch.tech import default_tech
from repro.deconv.shapes import DeconvSpec
from repro.eval.parallel import DesignJob, run_cycle_jobs, run_design_jobs
from repro.eval.store import PackedSweepStore
from repro.eval.sweeps import stride_speedup_sweep

DESIGNS = ("zero-padding", "padding-free", "RED")

_SETTINGS = dict(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def design_job_lists(draw):
    """Small, diverse job lists over the FCN kernel convention."""
    strides = draw(
        st.lists(st.sampled_from((1, 2, 3, 4)), min_size=1, max_size=3, unique=True)
    )
    channels = draw(st.sampled_from((2, 3, 5)))
    mux_share = draw(st.sampled_from((4, 8, 16)))
    tech = default_tech().with_overrides(mux_share=mux_share)
    jobs = []
    for s in strides:
        k = max(2 * s, 2)
        spec = DeconvSpec(
            input_height=3, input_width=3, in_channels=channels,
            kernel_height=k, kernel_width=k, out_channels=2,
            stride=s, padding=s // 2,
        )
        for design in DESIGNS:
            jobs.append(DesignJob(design, spec, tech, layer_name=f"s{s}-{design}"))
    return jobs


def _digest(results) -> tuple[bytes, ...]:
    """Canonical per-result serialization.

    Per-element rather than whole-list: pickle memoizes *shared object
    identity* (e.g. the interned design-name string appearing in several
    in-process results), so two lists of byte-identical elements can
    still differ at the list level depending on which process produced
    them.
    """
    return tuple(
        pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL) for result in results
    )


class TestCacheInvariance:
    @given(design_job_lists())
    @settings(**_SETTINGS)
    def test_warm_cache_equals_cold_cache_equals_uncached(self, jobs):
        with tempfile.TemporaryDirectory() as directory:
            cache = PackedSweepStore(directory)
            cold = run_design_jobs(jobs, cache=cache)
            # Metrics enter the memory tier only: nothing reaches disk.
            assert cache.memory_size() == len(jobs)
            assert cache.stores == 0 and len(cache) == 0
            warm = run_design_jobs(jobs, cache=cache)
            assert cache.memory_hits >= len(jobs)
            reopened = run_design_jobs(jobs, cache=PackedSweepStore(directory))
            uncached = run_design_jobs(jobs)
            assert (
                _digest(cold) == _digest(warm) == _digest(reopened)
                == _digest(uncached)
            )

    @given(design_job_lists())
    @settings(**_SETTINGS)
    def test_cycle_stats_identical_cold_warm_reopened_uncached(self, jobs):
        with tempfile.TemporaryDirectory() as directory:
            cache = PackedSweepStore(directory)
            cold = run_cycle_jobs(jobs, cache=cache)
            traced = sum(stats is not None for stats in cold)
            assert cache.stores == traced
            warm = run_cycle_jobs(jobs, cache=cache)
            assert cache.memory_hits == traced
            reopened_store = PackedSweepStore(directory)
            reopened = run_cycle_jobs(jobs, cache=reopened_store)
            assert reopened_store.disk_hits == traced
            uncached = run_cycle_jobs(jobs)
            assert (
                _digest(cold) == _digest(warm) == _digest(reopened)
                == _digest(uncached)
            )


class TestSweepLevelDeterminism:
    def test_stride_sweep_identical_across_jobs_and_cache(self):
        strides = (1, 2, 4)
        baseline = stride_speedup_sweep(strides=strides)
        calls = []

        def runner(jobs, **kwargs):
            calls.append(len(jobs))
            return run_design_jobs(jobs, **kwargs)

        with tempfile.TemporaryDirectory() as directory:
            with RedService(cache=directory, design_runner=runner) as service:
                cold = service.sweep_points(strides=strides)
                cached = service.sweep_points(strides=strides)
        # The repeat is served whole from the service's memo.
        assert calls == [2 * len(strides)]
        assert _digest(baseline) == _digest(cold) == _digest(cached)
