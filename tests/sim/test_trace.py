"""Tests for the execution trace."""

from repro.sim.trace import Trace


class TestTrace:
    def test_record_and_filter(self):
        trace = Trace()
        trace.record(0, "sc_fire", (1, 2))
        trace.record(0, "input_fetch", (3, 4))
        trace.record(1, "sc_fire", (5, 6))
        assert trace.count() == 3
        assert trace.count("sc_fire") == 2
        assert [e.cycle for e in trace.events("sc_fire")] == [0, 1]

    def test_bounded_eviction(self):
        trace = Trace(max_events=3)
        for i in range(5):
            trace.record(i, "e", (i,))
        assert len(trace) == 3
        assert [e.cycle for e in trace.events()] == [2, 3, 4]

    def test_non_positive_limit_records_nothing(self):
        for limit in (0, -1):
            trace = Trace(max_events=limit)
            trace.record(0, "sc_fire", (1, 2))
            assert len(trace) == 0
            assert trace.count("sc_fire") == 0

    def test_event_str(self):
        trace = Trace()
        trace.record(7, "output_write", (1, 2, 3))
        text = str(next(trace.events()))
        assert "output_write" in text and "7" in text

    def test_detail_tuple_frozen(self):
        trace = Trace()
        trace.record(0, "e", [1, 2])
        event = next(trace.events())
        assert event.detail == (1, 2)
