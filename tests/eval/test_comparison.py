"""Tests for the automated paper-vs-measured comparison."""

import pytest

from repro.eval.comparison import measure_claims, render_comparison
from repro.eval.harness import run_grid
from repro.eval.paper_targets import PAPER_TARGETS


@pytest.fixture(scope="module")
def grid():
    return run_grid()


class TestComparison:
    def test_every_target_measured(self, grid):
        rows = measure_claims(grid)
        assert {r.key for r in rows} == set(PAPER_TARGETS)

    def test_all_strict_claims_pass(self, grid):
        assert all(row.in_band for row in measure_claims(grid) if row.strict)

    def test_all_claims_currently_in_band(self, grid):
        """The calibrated defaults satisfy even the loose bands."""
        for row in measure_claims(grid):
            assert row.in_band, row.key

    def test_status_strings(self, grid):
        rows = measure_claims(grid)
        assert all(row.status == "ok" for row in rows if row.in_band)

    def test_render_contains_headline_values(self, grid):
        text = render_comparison(grid)
        assert "86.8%" in text
        assert "31.15x" in text
        assert "status" in text

    def test_deviation_labelling(self):
        from repro.eval.comparison import ComparisonRow

        strict = ComparisonRow("k", "c", "p", 0.0, in_band=False, strict=True)
        loose = ComparisonRow("k", "c", "p", 0.0, in_band=False, strict=False)
        assert strict.status == "DEVIATION"
        assert "documented" in loose.status
