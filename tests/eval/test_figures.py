"""Tests for the figure data generators."""

import pytest

from repro.api.registry import available_designs
from repro.eval.figures import (
    FIG9_LAYERS,
    fig4_redundancy_curves,
    fig7_latency,
    fig8_energy,
    fig9_area,
)
from repro.eval.harness import run_grid


@pytest.fixture(scope="module")
def grid():
    return run_grid()


class TestFig4:
    def test_two_curves_six_points(self):
        curves = fig4_redundancy_curves()
        assert set(curves) == {"SNGAN input:4x4", "FCN input:16x16"}
        for series in curves.values():
            assert [s for s, _ in series] == [1, 2, 4, 8, 16, 32]

    def test_values_are_fractions(self):
        for series in fig4_redundancy_curves().values():
            assert all(0.0 <= v <= 1.0 for _, v in series)


class TestFig7:
    def test_structure(self, grid):
        fig = fig7_latency(grid)
        for layer in grid.metrics:
            assert set(fig.speedup[layer]) == set(available_designs())
            for design in available_designs():
                b = fig.breakdown[layer][design]
                assert set(b) == {"array", "periphery"}

    def test_baseline_breakdown_sums_to_one(self, grid):
        fig = fig7_latency(grid)
        for layer in grid.metrics:
            b = fig.breakdown[layer]["zero-padding"]
            assert b["array"] + b["periphery"] == pytest.approx(1.0)

    def test_speedup_consistent_with_breakdown(self, grid):
        fig = fig7_latency(grid)
        for layer in grid.metrics:
            for design in available_designs():
                total = sum(fig.breakdown[layer][design].values())
                assert fig.speedup[layer][design] == pytest.approx(1.0 / total)


class TestFig8:
    def test_saving_plus_ratio_is_one(self, grid):
        fig = fig8_energy(grid)
        for layer in grid.metrics:
            for design in available_designs():
                assert fig.saving[layer][design] + fig.ratio[layer][design] == pytest.approx(1.0)

    def test_breakdown_sums_to_ratio(self, grid):
        fig = fig8_energy(grid)
        for layer in grid.metrics:
            for design in available_designs():
                b = fig.breakdown[layer][design]
                assert b["array"] + b["periphery"] == pytest.approx(
                    fig.ratio[layer][design]
                )

    def test_array_ratio_self_is_one(self, grid):
        fig = fig8_energy(grid)
        for layer in grid.metrics:
            assert fig.array_ratio[layer]["zero-padding"] == pytest.approx(1.0)


class TestFig9:
    def test_covers_shown_layers(self, grid):
        fig = fig9_area(grid)
        assert set(fig.normalized) == set(FIG9_LAYERS)

    def test_total_is_array_plus_periphery(self, grid):
        fig = fig9_area(grid)
        for layer, designs in fig.normalized.items():
            for design, n in designs.items():
                assert n["array"] + n["periphery"] == pytest.approx(n["total"])

    def test_array_fraction_identical_across_designs(self, grid):
        fig = fig9_area(grid)
        for layer, designs in fig.normalized.items():
            arrays = {round(n["array"], 12) for n in designs.values()}
            assert len(arrays) == 1
