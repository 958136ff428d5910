"""Tests for the analytic schedule compiler and its LRU.

The load-bearing property: :func:`build_compiled_schedule` (closed-form
meshgrid construction) is event-for-event identical to
:func:`compile_schedule_via_walk`, which replays the scalar
:func:`walk_events` oracle — same counters, same tap-group ordering,
same row-major pixel/output ordering within every group.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.compiler as schedule_compiler
from repro.core.fold import choose_fold
from repro.deconv.shapes import DeconvSpec
from repro.errors import ParameterError
from repro.sim.compiler import (
    DEFAULT_SCHEDULE_CACHE_CAPACITY,
    build_compiled_schedule,
    clear_compiled_schedules,
    compile_schedule,
    compile_schedule_via_walk,
    schedule_cache_info,
    walk_events,
)
from tests.conftest import SMALL_SPECS, deconv_specs


@pytest.fixture
def fresh_cache():
    """Isolate a test from process-wide schedule-cache state.

    Not autouse: the hypothesis property tests below use only the
    uncached compile entry points, and a function-scoped fixture under
    ``@given`` would trip the function_scoped_fixture health check.
    """
    clear_compiled_schedules()
    yield
    clear_compiled_schedules()


def assert_schedules_identical(analytic, walked) -> None:
    """Granular version of ``CompiledSchedule.same_events`` (the
    canonical benchmark check, asserted last) for readable hypothesis
    failure output."""
    assert analytic.spec == walked.spec
    assert analytic.fold == walked.fold
    assert analytic.num_slots == walked.num_slots
    assert analytic.cycles == walked.cycles
    assert analytic.num_fires == walked.num_fires
    assert analytic.sc_idle == walked.sc_idle
    assert analytic.buffer_reads == walked.buffer_reads
    assert analytic.output_pixels == walked.output_pixels
    assert len(analytic.tap_groups) == len(walked.tap_groups)
    for got, expected in zip(analytic.tap_groups, walked.tap_groups):
        assert got.tap == expected.tap
        assert got.phys == expected.phys
        assert got.slot == expected.slot
        assert got.pixels.dtype == expected.pixels.dtype
        np.testing.assert_array_equal(got.pixels, expected.pixels)
        np.testing.assert_array_equal(got.outputs, expected.outputs)
    assert analytic.same_events(walked)


class TestAnalyticMatchesOracle:
    @pytest.mark.parametrize("fold", (1, 2, 3))
    def test_spec_zoo(self, small_spec, fold):
        assert_schedules_identical(
            build_compiled_schedule(small_spec, fold),
            compile_schedule_via_walk(small_spec, fold),
        )

    @given(
        spec=deconv_specs(max_input=6, max_kernel=6, max_stride=4),
        fold=st.integers(1, 6),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_randomized(self, spec, fold):
        assert_schedules_identical(
            build_compiled_schedule(spec, fold),
            compile_schedule_via_walk(spec, fold),
        )

    def test_auto_fold_under_tight_budget(self):
        for spec in SMALL_SPECS:
            fold = choose_fold(spec, max_sub_crossbars=4)
            assert_schedules_identical(
                build_compiled_schedule(spec, fold),
                compile_schedule_via_walk(spec, fold),
            )

    @given(spec=deconv_specs(max_input=5, max_kernel=5, max_stride=3))
    @settings(max_examples=30, deadline=None)
    def test_counts_match_raw_event_stream(self, spec):
        """The compiled counters literally count the oracle's events."""
        fold = 2
        kinds = {"fire": 0, "idle": 0, "fetch": 0, "write": 0}
        for event in walk_events(spec, fold):
            kinds[event[0]] += 1
        compiled = build_compiled_schedule(spec, fold)
        assert compiled.num_fires == kinds["fire"]
        assert compiled.sc_idle == kinds["idle"]
        assert compiled.buffer_reads == kinds["fetch"]
        assert compiled.output_pixels == kinds["write"]
        assert compiled.num_fires == sum(
            len(group.pixels) for group in compiled.tap_groups
        )

    def test_outputs_unique_within_group(self, small_spec):
        compiled = build_compiled_schedule(small_spec, 1)
        for group in compiled.tap_groups:
            assert len(np.unique(group.outputs)) == len(group.outputs)

    def test_invalid_fold_rejected(self, small_spec):
        with pytest.raises(ParameterError):
            build_compiled_schedule(small_spec, 0)

    def test_same_events_tells_schedules_apart(self):
        spec = DeconvSpec(4, 4, 3, 4, 4, 2, stride=2, padding=1)
        base = build_compiled_schedule(spec, 1)
        assert base.same_events(compile_schedule_via_walk(spec, 1))
        assert not base.same_events(build_compiled_schedule(spec, 2))
        other = DeconvSpec(4, 4, 3, 4, 4, 2, stride=2, padding=0)
        assert not base.same_events(build_compiled_schedule(other, 1))


@pytest.mark.usefixtures("fresh_cache")
class TestScheduleCache:
    def test_hit_and_miss_accounting(self):
        spec = SMALL_SPECS[0]
        compile_schedule(spec, 1)
        first = schedule_cache_info()
        assert first.misses == 1 and first.hits == 0
        assert compile_schedule(spec, 1) is compile_schedule(spec, 1)
        info = schedule_cache_info()
        assert info.hits == 2
        assert info.size == 1
        assert info.capacity == DEFAULT_SCHEDULE_CACHE_CAPACITY == 64

    def test_capacity_evicts_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(schedule_compiler, "DEFAULT_SCHEDULE_CACHE_CAPACITY", 2)
        a, b, c = SMALL_SPECS[0], SMALL_SPECS[1], SMALL_SPECS[2]
        first = compile_schedule(a, 1)
        compile_schedule(b, 1)
        assert compile_schedule(a, 1) is first  # refresh a; b is now LRU
        compile_schedule(c, 1)  # evicts b
        resident = {(entry.spec, entry.fold) for entry in schedule_cache_info().entries}
        assert resident == {(a, 1), (c, 1)}
        assert schedule_cache_info().capacity == 2
        assert compile_schedule(a, 1) is first

    def test_shrinking_capacity_trims_entries(self, monkeypatch):
        for spec in SMALL_SPECS[:4]:
            compile_schedule(spec, 1)
        assert schedule_cache_info().size == 4
        monkeypatch.setattr(schedule_compiler, "DEFAULT_SCHEDULE_CACHE_CAPACITY", 1)
        newest = compile_schedule(SMALL_SPECS[4], 1)  # one insert trims all excess
        (entry,) = schedule_cache_info().entries
        assert (entry.spec, entry.fold) == (SMALL_SPECS[4], 1)
        assert compile_schedule(SMALL_SPECS[4], 1) is newest

    def test_per_entry_footprint(self):
        spec = SMALL_SPECS[2]
        compiled = compile_schedule(spec, 1)
        info = schedule_cache_info()
        (entry,) = info.entries
        assert entry.spec == spec and entry.fold == 1
        expected = sum(
            group.pixels.nbytes + group.outputs.nbytes
            for group in compiled.tap_groups
        )
        assert entry.nbytes == compiled.nbytes == expected > 0

    def test_clear_releases_everything(self):
        compile_schedule(SMALL_SPECS[0], 1)
        clear_compiled_schedules()
        info = schedule_cache_info()
        assert info.size == 0 and info.hits == 0 and info.misses == 0


class TestLargeLayerSpotChecks:
    """Closed-form counters on shapes too big for the event-walk tests."""

    def test_fcn_stride8_folded(self):
        spec = DeconvSpec(8, 8, 4, 16, 16, 4, stride=8, padding=0)
        assert_schedules_identical(
            build_compiled_schedule(spec, 2),
            compile_schedule_via_walk(spec, 2),
        )

    def test_output_pixels_always_cover_the_output(self, small_spec):
        compiled = build_compiled_schedule(small_spec, 1)
        assert compiled.output_pixels == small_spec.num_output_pixels
        covered = np.concatenate(
            [group.outputs for group in compiled.tap_groups]
        ) if compiled.tap_groups else np.array([], dtype=np.intp)
        # Every written pixel index is a valid flat output coordinate.
        assert covered.size == 0 or (
            covered.min() >= 0 and covered.max() < small_spec.num_output_pixels
        )
