"""Tests for the evaluation grid."""

import pytest

from repro.api.registry import available_designs, build_design
from repro.eval.harness import run_grid
from repro.workloads.specs import TABLE_I_LAYERS, get_layer


@pytest.fixture(scope="module")
def grid():
    return run_grid()


class TestGrid:
    def test_covers_full_matrix(self, grid):
        assert len(grid.metrics) == len(TABLE_I_LAYERS)
        for layer, row in grid.metrics.items():
            assert set(row) == set(available_designs())

    def test_baseline_is_zero_padding(self, grid):
        base = grid.baseline("GAN_Deconv1")
        assert base.design == "zero-padding"

    def test_self_speedup_is_one(self, grid):
        assert grid.speedup("GAN_Deconv1", "zero-padding") == pytest.approx(1.0)

    def test_self_saving_is_zero(self, grid):
        assert grid.energy_saving("GAN_Deconv3", "zero-padding") == pytest.approx(0.0)

    def test_subset_of_layers(self):
        sub = run_grid(layers=(get_layer("GAN_Deconv3"),))
        assert list(sub.metrics) == ["GAN_Deconv3"]

    def test_cycles_recorded(self, grid):
        m = grid.get("FCN_Deconv2", "RED")
        assert m.cycles == 2 * 71 * 71


class TestCells:
    def test_every_cell_is_labelled_with_its_layer_and_design(self, grid):
        for layer in grid.layers:
            for design in available_designs():
                metrics = grid.get(layer.name, design)
                assert (metrics.layer, metrics.design) == (layer.name, design)

    def test_baseline_is_neutral_on_every_layer(self, grid):
        for layer in grid.layers:
            assert grid.speedup(layer.name, "zero-padding") == 1.0
            assert grid.energy_saving(layer.name, "zero-padding") == 0.0
            assert grid.area_ratio(layer.name, "zero-padding") == 1.0

    def test_cells_equal_the_scalar_design_evaluation(self, grid):
        # The grid runs the batched service path; each cell must be the
        # exact DesignMetrics the design's own scalar model produces.
        for layer in grid.layers:
            for design in available_designs():
                expected = build_design(design, layer.spec).evaluate(layer.name)
                assert grid.get(layer.name, design) == expected
