"""Chip-level evaluation: provision once, run the whole generator.

The paper reports per-layer results; a deployed accelerator provisions
one chip and pipelines samples through it (the ReGAN execution model).
This example maps the DCGAN generator onto each design, provisions the
chip by its most demanding layer per resource class, and reports:

* end-to-end latency/energy for one generated image,
* pipelined steady-state throughput for a batch,
* chip area and per-layer utilization,
* one-time kernel programming cost and its amortization.

Usage::

    python examples/chip_level_evaluation.py
"""

import numpy as np

from repro.api.registry import available_designs, baseline_design
from repro.arch.programming import programming_cost
from repro.system.chip import provision_chip
from repro.system.network_mapper import evaluate_network
from repro.system.pipeline import pipeline_network
from repro.utils.formatting import (
    format_joules,
    format_seconds,
    render_ascii_table,
)
from repro.workloads.networks import DCGANGenerator


def main() -> None:
    gen = DCGANGenerator(rng=np.random.default_rng(0))
    evaluation = evaluate_network(gen, 1, 1)
    print(f"DCGAN generator: {len(evaluation.layers)} deconvolution layers\n")

    baseline_chip = provision_chip(evaluation, baseline_design())
    rows = []
    for design in available_designs():
        report = pipeline_network(evaluation, design, batch=64)
        chip = provision_chip(evaluation, design)
        rows.append(
            (
                design,
                format_seconds(evaluation.total_latency(design)),
                f"{evaluation.speedup(design):.2f}x",
                f"{evaluation.energy_saving(design) * 100:.1f}%",
                f"{report.throughput:,.0f}/s",
                f"{chip.total_area * 1e6:.3f} mm^2",
                f"{chip.overhead_over(baseline_chip) * 100:+.1f}%",
            )
        )
    print(
        render_ascii_table(
            (
                "design", "image latency", "speedup", "energy saving",
                "pipelined throughput", "chip area", "chip overhead",
            ),
            rows,
            title="DCGAN generator on one provisioned chip (batch 64)",
        )
    )

    red_chip = provision_chip(evaluation, "RED")
    print("\nRED chip utilization per layer:")
    for layer, util in red_chip.per_layer_utilization.items():
        print(f"  {layer:>12}: {util * 100:5.1f}%")

    # One-time programming cost of the largest layer's kernel.
    biggest = max(evaluation.layers, key=lambda l: l.spec.num_weights)
    cost = programming_cost(biggest.spec)
    per_run = evaluation.total_energy("RED")
    print(
        f"\nProgramming {biggest.name} ({biggest.spec.num_weights:,} weights, "
        f"{cost.cells:,} cells): {format_joules(cost.energy)}, "
        f"{format_seconds(cost.latency)} — amortized below 1% of inference "
        f"energy after {cost.energy / (0.01 * per_run):,.0f} images."
    )


if __name__ == "__main__":
    main()
