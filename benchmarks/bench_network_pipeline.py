"""Whole-network evaluation: GAN generators on pipelined chips.

Beyond the paper's isolated layers: maps complete generator networks onto
each design, checks RED wins end to end, and verifies the chip-level view
under which the paper's per-layer-constant area overhead (+21.41%) is
recovered for the GAN regime.
"""

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro.system.chip import provision_chip
from repro.system.network_mapper import evaluate_network
from repro.system.pipeline import pipeline_network
from repro.utils.formatting import format_seconds, render_ascii_table
from repro.workloads.networks import DCGANGenerator, SNGANGenerator


@pytest.fixture(scope="module")
def sngan_eval():
    gen = SNGANGenerator(base_size=4, rng=np.random.default_rng(0))
    return evaluate_network(gen, 1, 1)


def test_bench_network_evaluation(benchmark):
    gen = DCGANGenerator(rng=np.random.default_rng(0))
    evaluation = benchmark(evaluate_network, gen, 1, 1)
    assert evaluation.speedup("RED") > 3.0
    assert 0.0 < evaluation.energy_saving("RED") < 1.0


def test_pipeline_and_chip(benchmark, sngan_eval):
    report = benchmark(pipeline_network, sngan_eval, "RED", 64)
    assert report.pipeline_speedup > 1.0

    zp_chip = provision_chip(sngan_eval, "zero-padding")
    red_chip = provision_chip(sngan_eval, "RED")
    overhead = red_chip.overhead_over(zp_chip)
    # The paper's chip-level claim: ~+21.41% (22.14% in the abstract).
    assert 0.15 <= overhead <= 0.30

    rows = []
    for design in ("zero-padding", "padding-free", "RED"):
        rep = pipeline_network(sngan_eval, design, batch=64)
        chip = provision_chip(sngan_eval, design)
        rows.append(
            (
                design,
                format_seconds(sngan_eval.total_latency(design)),
                f"{sngan_eval.speedup(design):.2f}x",
                f"{rep.throughput:,.0f}/s",
                f"{chip.total_area * 1e6:.3f} mm^2",
            )
        )
    emit(
        render_ascii_table(
            ("design", "latency", "speedup", "throughput", "chip area"),
            rows,
            title="SNGAN generator, chip-level (paper RED area claim: +21.41%)",
        )
    )
    emit(f"RED chip overhead vs zero-padding: +{overhead * 100:.1f}%")
