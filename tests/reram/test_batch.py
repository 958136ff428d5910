"""The vectorized Monte-Carlo fidelity plane vs its scalar oracle.

Covers the ISSUE-6 contracts:

- ``sample_fidelity_grid`` is **bit-identical** to the scalar
  ``fidelity_point`` composition of the fixed noise/drift/adc modules,
  across probe shapes, seeds, times, noise scenarios and ADC configs
  (hypothesis property).
- Results are **invariant to batch order and sharding** — a point's
  stats depend only on its ``(seed, time)`` values.
- The numpy reduction identities the bit-contract rests on hold:
  stacked outer-axis sums equal per-slice sums, stacked last-axis
  means equal per-row means.
- ``run_fidelity_jobs`` respects the batched cache discipline: results
  in job order, relabelled per job, cold/warm byte-identical.
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.tech import default_tech
from repro.deconv.shapes import DeconvSpec
from repro.eval.parallel import (
    FIDELITY_KIND,
    FidelityJob,
    fidelity_job_key,
    fidelity_job_keys,
    run_fidelity_jobs,
)
from repro.eval.store import PackedSweepStore
from repro.reram.adc import adc_for_crossbar
from repro.reram.batch import (
    FidelityProfile,
    derived_fidelity_profile,
    fidelity_point,
    profile_digits,
    profile_for_design,
    read_noise_stream,
    sample_fidelity_grid,
)
from repro.reram.device import ReRAMDeviceParams, digits_to_conductance
from repro.reram.noise import NoiseModel
from repro.workloads.specs import TABLE_I_LAYERS

SPEC = DeconvSpec(4, 4, 3, 4, 4, 2, stride=2, padding=1)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
seeds_lists = st.lists(st.integers(0, 2**31), min_size=1, max_size=4, unique=True)
times_lists = st.lists(
    st.floats(min_value=1e-3, max_value=1e12, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=4,
    unique=True,
)
sigmas = st.one_of(st.just(0.0), st.floats(0.01, 0.5, allow_nan=False))
rates = st.one_of(st.just(0.0), st.floats(0.001, 0.3, allow_nan=False))


@st.composite
def profiles(draw):
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(1, 8))
    device = ReRAMDeviceParams(bits_per_cell=draw(st.integers(1, 3)))
    if draw(st.booleans()):
        adc = adc_for_crossbar(
            rows, device.num_levels, draw(st.one_of(st.none(), st.integers(2, 10)))
        )
    else:
        adc = None
    return FidelityProfile(
        design=draw(st.sampled_from(("probe", "x"))),
        rows=rows,
        cols=cols,
        device=device,
        adc=adc,
    )


def grid_points(seeds, times):
    return [(seed, time_s) for seed in seeds for time_s in times]


# ----------------------------------------------------------------------
# Bit-identity against the scalar oracle
# ----------------------------------------------------------------------
class TestBitIdentity:
    @given(
        profile=profiles(),
        seeds=seeds_lists,
        times=times_lists,
        nu=st.floats(0.0, 0.1, allow_nan=False),
        programming_sigma=sigmas,
        read_noise_sigma=sigmas,
        stuck_at_rate=rates,
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_batched_equals_scalar_oracle(
        self, profile, seeds, times, nu,
        programming_sigma, read_noise_sigma, stuck_at_rate,
    ):
        scenario = dict(
            nu=nu,
            programming_sigma=programming_sigma,
            read_noise_sigma=read_noise_sigma,
            stuck_at_rate=stuck_at_rate,
            layer="L",
        )
        points = grid_points(seeds, times)
        batched = sample_fidelity_grid(profile, points, **scenario)
        scalar = [
            fidelity_point(profile, seed, time_s, **scenario)
            for seed, time_s in points
        ]
        assert batched == scalar  # FidelityStats is all-float: == is bitwise

    def test_registered_designs_bit_identical(self):
        scenario = dict(
            programming_sigma=0.08, read_noise_sigma=0.02, stuck_at_rate=0.01
        )
        points = grid_points((0, 1, 7), (1.0, 3600.0, 3.2e7))
        for design in ("zero-padding", "padding-free", "RED"):
            profile = profile_for_design(design, SPEC)
            assert sample_fidelity_grid(profile, points, **scenario) == [
                fidelity_point(profile, s, t, **scenario) for s, t in points
            ]

    def test_zero_noise_lossless_adc_is_exact(self):
        profile = profile_for_design("RED", SPEC)
        [stats] = sample_fidelity_grid(
            profile, [(0, 1.0)], programming_sigma=0.0, nu=0.0
        )
        assert stats.rms_error == 0.0
        assert stats.max_abs_error == 0.0
        assert stats.stuck_fraction == 0.0

    def test_empty_points(self):
        assert sample_fidelity_grid(profile_for_design("RED", SPEC), []) == []

    def test_duplicate_points_return_identical_stats(self):
        profile = profile_for_design("RED", SPEC)
        a, b = sample_fidelity_grid(
            profile, [(3, 60.0), (3, 60.0)], programming_sigma=0.1
        )
        assert a == b


# ----------------------------------------------------------------------
# Order and shard invariance
# ----------------------------------------------------------------------
class TestBatchInvariance:
    SCENARIO = dict(
        programming_sigma=0.1, read_noise_sigma=0.03, stuck_at_rate=0.02
    )

    @given(
        profile=profiles(),
        seeds=seeds_lists,
        times=times_lists,
        shuffler=st.randoms(use_true_random=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_order_invariance(self, profile, seeds, times, shuffler):
        points = grid_points(seeds, times)
        shuffled = list(points)
        shuffler.shuffle(shuffled)
        by_point = dict(
            zip(points, sample_fidelity_grid(profile, points, **self.SCENARIO))
        )
        for point, stats in zip(
            shuffled, sample_fidelity_grid(profile, shuffled, **self.SCENARIO)
        ):
            assert stats == by_point[point]

    @given(
        profile=profiles(),
        seeds=seeds_lists,
        times=times_lists,
        split=st.integers(0, 15),
    )
    @settings(max_examples=25, deadline=None)
    def test_shard_invariance(self, profile, seeds, times, split):
        points = grid_points(seeds, times)
        cut = split % (len(points) + 1)
        full = sample_fidelity_grid(profile, points, **self.SCENARIO)
        sharded = sample_fidelity_grid(
            profile, points[:cut], **self.SCENARIO
        ) + sample_fidelity_grid(profile, points[cut:], **self.SCENARIO)
        assert sharded == full

    def test_read_noise_stream_is_a_value_key(self):
        assert read_noise_stream(3600.0) == read_noise_stream(3600)
        assert read_noise_stream(1.0) != read_noise_stream(2.0)
        assert read_noise_stream(1e12) >= 0


# ----------------------------------------------------------------------
# The numpy identities the bit-contract rests on
# ----------------------------------------------------------------------
class TestReductionIdentities:
    @given(
        stack=st.integers(1, 5),
        rows=st.integers(1, 16),
        cols=st.integers(1, 16),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_stacked_outer_sum_equals_per_slice_sum(self, stack, rows, cols, seed):
        data = np.random.default_rng(seed).uniform(0, 1, size=(stack, rows, cols))
        stacked = data.sum(axis=1)
        for index in range(stack):
            np.testing.assert_array_equal(stacked[index], data[index].sum(axis=0))

    @given(
        stack=st.integers(1, 5),
        cols=st.integers(1, 16),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_stacked_last_axis_mean_equals_per_row_mean(self, stack, cols, seed):
        data = np.random.default_rng(seed).uniform(0, 1, size=(stack, cols))
        stacked = np.mean(data, axis=-1)
        for index in range(stack):
            assert stacked[index] == np.mean(data[index])

    def test_apply_programming_promotes_float32_to_float64(self):
        device = ReRAMDeviceParams()
        digits = profile_digits(
            FidelityProfile(design="p", rows=4, cols=4, device=device)
        )
        ideal64 = digits_to_conductance(digits, device)
        out32 = NoiseModel(programming_sigma=0.1, seed=3).apply_programming(
            ideal64.astype(np.float32), device, stream=0
        )
        out64 = NoiseModel(programming_sigma=0.1, seed=3).apply_programming(
            ideal64, device, stream=0
        )
        assert out32.dtype == np.float64
        np.testing.assert_allclose(out32, out64, rtol=1e-6)


# ----------------------------------------------------------------------
# The cache-backed runner
# ----------------------------------------------------------------------
def make_fidelity_jobs():
    tech = default_tech()
    return [
        FidelityJob(
            design=design, spec=SPEC, tech=tech, seed=seed, time_s=time_s,
            programming_sigma=0.08, stuck_at_rate=0.01,
            layer_name=f"{design}:{seed}",
        )
        for design in ("RED", "zero-padding")
        for seed in (0, 1)
        for time_s in (1.0, 3600.0)
    ]


class TestRunFidelityJobs:
    def test_results_in_job_order_and_relabelled(self):
        jobs = make_fidelity_jobs()
        results = run_fidelity_jobs(jobs)
        assert len(results) == len(jobs)
        for job, stats in zip(jobs, results):
            assert stats.layer == job.layer_name
            assert stats.seed == job.seed
            assert stats.time_s == job.time_s

    def test_matches_direct_sampling(self):
        jobs = make_fidelity_jobs()
        results = run_fidelity_jobs(jobs)
        for job, stats in zip(jobs, results):
            profile = profile_for_design(job.design, job.spec, job.tech)
            direct = fidelity_point(
                profile, job.seed, job.time_s,
                nu=job.nu,
                programming_sigma=job.programming_sigma,
                read_noise_sigma=job.read_noise_sigma,
                stuck_at_rate=job.stuck_at_rate,
                layer=job.layer_name,
            )
            assert stats == direct

    def test_cold_warm_byte_identical(self, tmp_path):
        jobs = make_fidelity_jobs()
        store = PackedSweepStore(tmp_path / "fid")
        cold = run_fidelity_jobs(jobs, cache=store)
        assert store.misses == len(jobs)
        warm = run_fidelity_jobs(jobs, cache=store)
        assert store.misses == len(jobs)  # no new misses: all hits
        assert pickle.dumps(cold) == pickle.dumps(warm)

    def test_job_order_does_not_change_results(self, tmp_path):
        jobs = make_fidelity_jobs()
        store = PackedSweepStore(tmp_path / "fid")
        forward = run_fidelity_jobs(jobs, cache=store)
        backward = run_fidelity_jobs(list(reversed(jobs)), cache=store)
        assert backward == list(reversed(forward))

    def test_batched_keys_match_scalar(self):
        jobs = make_fidelity_jobs()
        assert fidelity_job_keys(jobs) == [fidelity_job_key(job) for job in jobs]

    def test_keys_separate_kinds_and_scenarios(self):
        job = make_fidelity_jobs()[0]
        assert fidelity_job_key(job) != fidelity_job_key(job, kind="other")
        bumped = FidelityJob(
            design=job.design, spec=job.spec, tech=job.tech,
            seed=job.seed + 1, time_s=job.time_s,
            programming_sigma=job.programming_sigma,
            stuck_at_rate=job.stuck_at_rate, layer_name=job.layer_name,
        )
        assert fidelity_job_key(job) != fidelity_job_key(bumped)

    def test_store_round_trips_fidelity_stats(self, tmp_path):
        jobs = make_fidelity_jobs()
        results = run_fidelity_jobs(jobs)
        keys = fidelity_job_keys(jobs)
        store = PackedSweepStore(tmp_path / "raw")
        store.put_many(zip(keys, results), kind=FIDELITY_KIND)
        reopened = PackedSweepStore(tmp_path / "raw")
        assert reopened.get_many(keys, kind=FIDELITY_KIND) == results


def test_design_without_a_fidelity_hook_joins_through_its_derived_profile():
    import dataclasses

    from repro.api.registry import register_design, unregister_design
    from repro.designs.zero_padding_design import ZeroPaddingDesign

    @register_design("hookless-zero-padding")
    def _build(spec, tech):
        return ZeroPaddingDesign(spec, tech)

    try:
        profile = profile_for_design("hookless-zero-padding", SPEC)
        derived = derived_fidelity_profile("hookless-zero-padding", SPEC, None)
        assert pickle.dumps(profile) == pickle.dumps(derived)
        # Same geometry as the built-in baseline, so the same samples.
        job = FidelityJob("hookless-zero-padding", SPEC, default_tech(), seed=3,
                          time_s=3600.0, programming_sigma=0.05)
        (plugin,) = run_fidelity_jobs([job])
        (builtin,) = run_fidelity_jobs([dataclasses.replace(job, design="zero-padding")])
        assert plugin == dataclasses.replace(builtin, design="hookless-zero-padding")
    finally:
        unregister_design("hookless-zero-padding")


@pytest.mark.parametrize("layer", TABLE_I_LAYERS, ids=lambda layer: layer.name)
@pytest.mark.parametrize("design", ("zero-padding", "padding-free", "RED"))
def test_derived_profile_probes_the_capped_perf_geometry(design, layer):
    from repro.api.registry import build_design

    tech = default_tech()
    perf = build_design(design, layer.spec, tech).perf_input()
    profile = derived_fidelity_profile(design, layer.spec, max_rows=64, max_cols=32)
    assert (profile.design, profile.rows, profile.cols) == (
        design, min(int(perf.bitline_rows), 64), min(int(perf.wordline_cols), 32),
    )
    assert profile.device.bits_per_cell == tech.bits_per_cell
    assert profile.adc == adc_for_crossbar(profile.rows, profile.device.num_levels, None)
