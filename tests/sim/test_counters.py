"""Tests for the counter set."""

import pytest

from repro.sim.counters import CounterSet


class TestCounterSet:
    def test_add_and_get(self):
        counters = CounterSet()
        counters.add("x")
        counters.add("x", 4)
        assert counters.get("x") == 5

    def test_missing_counter_is_zero(self):
        assert CounterSet().get("nothing") == 0

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            CounterSet().add("x", -1)

    def test_merge(self):
        a, b = CounterSet(), CounterSet()
        a.add("x", 2)
        b.add("x", 3)
        b.add("y", 1)
        a.merge(b)
        assert a.get("x") == 5
        assert a.get("y") == 1

    def test_repr_lists_counters_in_name_order(self):
        counters = CounterSet()
        counters.add("macs", 9)
        counters.add("fires", 2)
        assert repr(counters) == "CounterSet(fires=2, macs=9)"
        assert repr(CounterSet()) == "CounterSet()"

    def test_iteration_sorted(self):
        counters = CounterSet()
        counters.add("b")
        counters.add("a")
        assert [name for name, _ in counters] == ["a", "b"]

    def test_contains(self):
        counters = CounterSet()
        counters.add("x")
        assert "x" in counters
        assert "y" not in counters

    def test_as_dict_snapshot(self):
        counters = CounterSet()
        counters.add("x")
        snap = counters.as_dict()
        counters.add("x")
        assert snap["x"] == 1
