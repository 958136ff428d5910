"""Tests for the evaluation grid."""

import pytest

from repro.eval.harness import DESIGN_ORDER, build_design, run_grid
from repro.eval.store import PackedSweepStore
from repro.workloads.specs import TABLE_I_LAYERS, get_layer


@pytest.fixture(scope="module")
def grid():
    return run_grid()


class TestGrid:
    def test_covers_full_matrix(self, grid):
        assert len(grid.metrics) == len(TABLE_I_LAYERS)
        for layer, row in grid.metrics.items():
            assert set(row) == set(DESIGN_ORDER)

    def test_baseline_is_zero_padding(self, grid):
        base = grid.baseline("GAN_Deconv1")
        assert base.design == "zero-padding"

    def test_self_speedup_is_one(self, grid):
        assert grid.speedup("GAN_Deconv1", "zero-padding") == pytest.approx(1.0)

    def test_self_saving_is_zero(self, grid):
        assert grid.energy_saving("GAN_Deconv3", "zero-padding") == pytest.approx(0.0)

    def test_store_built_from_a_path_is_closed(self, tmp_path, monkeypatch):
        closed = []
        original = PackedSweepStore.close
        monkeypatch.setattr(
            PackedSweepStore, "close", lambda self: (closed.append(self), original(self))
        )
        sub = run_grid(layers=(get_layer("GAN_Deconv3"),), cache=tmp_path)
        assert list(sub.metrics) == ["GAN_Deconv3"]
        assert [store.directory for store in closed] == [tmp_path]
        # Analytic metrics stay in the memory tier: nothing reached disk.
        assert list(tmp_path.iterdir()) == []

    def test_subset_of_layers(self):
        sub = run_grid(layers=(get_layer("GAN_Deconv3"),))
        assert list(sub.metrics) == ["GAN_Deconv3"]

    def test_build_design_dispatch(self):
        layer = get_layer("GAN_Deconv3")
        assert build_design("RED", layer).name == "RED"
        assert build_design("zero-padding", layer).name == "zero-padding"
        assert build_design("padding-free", layer).name == "padding-free"

    def test_build_design_unknown(self):
        with pytest.raises(KeyError):
            build_design("systolic", get_layer("GAN_Deconv3"))

    def test_cycles_recorded(self, grid):
        m = grid.get("FCN_Deconv2", "RED")
        assert m.cycles == 2 * 71 * 71
