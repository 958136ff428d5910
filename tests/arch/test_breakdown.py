"""Tests for the Table II breakdown containers."""

import pytest

from repro.arch.breakdown import (
    TABLE_II_COMPONENTS,
    AreaBreakdown,
    DesignMetrics,
    EnergyBreakdown,
    LatencyBreakdown,
)


class TestRollups:
    def test_array_sum(self):
        b = LatencyBreakdown(wordline=1.0, bitline=2.0, computation=3.0)
        assert b.array == 6.0
        assert b.periphery == 0.0

    def test_periphery_sum_includes_extras(self):
        b = EnergyBreakdown(decoder=1.0, mux=2.0, read_circuit=3.0, shift_adder=4.0,
                            extra_adder=5.0, crop=6.0)
        assert b.periphery == 21.0

    def test_total(self):
        b = EnergyBreakdown(wordline=1.0, decoder=2.0)
        assert b.total == 3.0

    def test_scaled(self):
        b = EnergyBreakdown(wordline=2.0, decoder=4.0)
        s = b.scaled(0.5)
        assert s.wordline == 1.0
        assert s.total == 3.0

    def test_normalized_to(self):
        base = EnergyBreakdown(wordline=4.0)
        other = EnergyBreakdown(wordline=1.0, decoder=1.0)
        norm = other.normalized_to(base)
        assert norm["wordline"] == 0.25
        assert norm["decoder"] == 0.25

    def test_normalized_to_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            EnergyBreakdown().normalized_to(EnergyBreakdown())

    def test_as_dict_round_trip(self):
        b = EnergyBreakdown(wordline=1.5, crop=0.5)
        d = b.as_dict()
        assert d["wordline"] == 1.5
        assert EnergyBreakdown(**d) == b


class TestTableII:

    def test_table_ii_rows(self):
        abbrs = [abbr for _, abbr, _ in TABLE_II_COMPONENTS]
        assert abbrs == ["c", "wd", "bd", "mux", "dec", "rc", "sa"]
        groups = {group for _, _, group in TABLE_II_COMPONENTS}
        assert groups == {"Array (a)", "Periphery (pp)"}


class TestDesignMetrics:
    def _metrics(self, lat, en, ar):
        return DesignMetrics(
            design="x", layer="y",
            latency=LatencyBreakdown(wordline=lat),
            energy=EnergyBreakdown(wordline=en),
            area=AreaBreakdown(computation=ar),
            cycles=1,
        )

    def test_speedup(self):
        fast = self._metrics(1.0, 1.0, 1.0)
        slow = self._metrics(4.0, 1.0, 1.0)
        assert fast.speedup_over(slow) == 4.0

    def test_energy_saving(self):
        lean = self._metrics(1.0, 1.0, 1.0)
        base = self._metrics(1.0, 4.0, 1.0)
        assert lean.energy_saving_over(base) == 0.75
