"""Reproducibility and cross-artifact consistency checks."""

import numpy as np
import pytest

from repro.eval.comparison import measure_claims
from repro.eval.harness import run_grid


class TestDeterminism:
    def test_grid_is_deterministic(self):
        a = run_grid()
        b = run_grid()
        for layer in a.metrics:
            for design in a.metrics[layer]:
                assert a.get(layer, design).latency.total == b.get(layer, design).latency.total
                assert a.get(layer, design).energy.total == b.get(layer, design).energy.total

    def test_functional_runs_deterministic(self):
        from repro.core.red_design import REDDesign
        from repro.workloads.data import layer_input, layer_kernel
        from repro.workloads.specs import get_layer

        layer = get_layer("GAN_Deconv3")
        x, w = layer_input(layer), layer_kernel(layer)
        a = REDDesign(layer.spec).run_functional(x, w).output
        b = REDDesign(layer.spec).run_functional(x, w).output
        np.testing.assert_array_equal(a, b)


class TestCrossArtifactConsistency:
    @pytest.fixture(scope="class")
    def grid(self):
        return run_grid()

    def test_grid_matches_comparison_speedups(self, grid):
        """The grid and the claims table must agree on the numbers."""
        red_speedups = [grid.speedup(layer, "RED") for layer in grid.metrics]
        claims = {c.key: c.measured for c in measure_claims(grid)}
        assert min(red_speedups) == pytest.approx(claims["speedup_min"])
        assert max(red_speedups) == pytest.approx(claims["speedup_max"])

    def test_figure_tables_agree_with_grid(self, grid):
        from repro.eval.figures import fig7_latency

        fig = fig7_latency(grid)
        for layer in grid.metrics:
            assert fig.speedup[layer]["RED"] == pytest.approx(
                grid.speedup(layer, "RED")
            )

    def test_cli_and_report_share_numbers(self, grid, capsys):
        from repro.cli import main
        from repro.eval.figures import fig8_energy

        assert main(["fig8"]) == 0
        out = capsys.readouterr().out
        saving = fig8_energy(grid).saving["FCN_Deconv2"]["RED"]
        assert f"{saving * 100:.1f}%" in out
