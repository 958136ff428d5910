"""Automated paper-vs-measured comparison.

Computes every checkable claim from the live model and pairs it with the
published value and its acceptance band — the data behind README's
headline table and EXPERIMENTS.md.  Each row carries a pass/deviation
status so regressions are visible at a glance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.eval.figures import fig4_redundancy_curves, fig7_latency, fig8_energy
from repro.eval.harness import EvaluationGrid, run_grid
from repro.eval.paper_targets import PAPER_TARGETS
from repro.utils.formatting import render_ascii_table

GAN_LAYERS = ("GAN_Deconv1", "GAN_Deconv2", "GAN_Deconv3", "GAN_Deconv4")


@dataclass(frozen=True)
class ComparisonRow:
    """One claim: published value, measured value, band verdict."""

    key: str
    claim: str
    published: str
    measured: float
    in_band: bool
    strict: bool

    @property
    def status(self) -> str:
        """``ok`` inside the band; ``DEVIATION`` outside a strict band."""
        if self.in_band:
            return "ok"
        return "DEVIATION" if self.strict else "deviation (documented)"


def measure_claims(grid: EvaluationGrid | None = None) -> list[ComparisonRow]:
    """Measure every banded claim against the current model."""
    grid = grid or run_grid()
    latency = fig7_latency(grid)
    energy = fig8_energy(grid)
    curves = fig4_redundancy_curves()

    red_speedups = [row["RED"] for row in latency.speedup.values()]
    savings = [row["RED"] for row in energy.saving.values()]
    pf_array = [energy.array_ratio[l]["padding-free"] for l in GAN_LAYERS]
    red_array = [energy.array_ratio[l]["RED"] for l in GAN_LAYERS]
    pf_total = [energy.ratio[l]["padding-free"] for l in GAN_LAYERS]
    reductions = [
        1.0 - grid.get(l, "RED").latency.total / grid.baseline(l).latency.total
        for l in grid.metrics
    ]

    measured: dict[str, float] = {
        "fig4_sngan_stride2": dict(curves["SNGAN input:4x4"])[2],
        "fig4_fcn_stride32": dict(curves["FCN input:16x16"])[32],
        "speedup_min": min(red_speedups),
        "speedup_max": max(red_speedups),
        "zp_over_pf_latency_gan": max(
            latency.speedup[l]["padding-free"] for l in GAN_LAYERS
        ),
        "red_latency_reduction": max(reductions),
        "energy_saving_min": min(savings),
        "energy_saving_max": max(savings),
        "pf_array_energy_gan": max(pf_array),
        "pf_total_energy_gan_max": max(pf_total),
        "red_array_similar": max(red_array),
        "red_area_overhead_gan": max(
            grid.area_ratio(l, "RED") - 1.0 for l in GAN_LAYERS
        ),
        "pf_area_overhead_gan1": grid.area_ratio("GAN_Deconv1", "padding-free") - 1.0,
        "pf_area_overhead_fcn2": grid.area_ratio("FCN_Deconv2", "padding-free") - 1.0,
    }

    rows = []
    for key, value in measured.items():
        band = PAPER_TARGETS[key]
        rows.append(
            ComparisonRow(
                key=key,
                claim=band.claim,
                published=band.published,
                measured=value,
                in_band=band.contains(value),
                strict=band.strict,
            )
        )
    return rows


def render_comparison(grid: EvaluationGrid | None = None) -> str:
    """Render the paper-vs-measured table."""
    rows = measure_claims(grid)
    table = [
        (r.claim, r.published, f"{r.measured:.4g}", r.status) for r in rows
    ]
    return render_ascii_table(
        ("claim", "published", "measured", "status"),
        table,
        title="Paper vs measured (bands in repro/eval/paper_targets.py)",
    )
