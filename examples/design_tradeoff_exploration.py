"""Design-space exploration: Sec. III-C fold trade-off and ReRAM fidelity.

Part 1 sweeps the Eq. 2 fold factor on the stride-8 FCN layer, printing
the area/latency frontier the paper's Sec. III-C discusses.

Part 2 explores the substrate's arithmetic fidelity: ADC resolution and
programming-variation sweeps through the bit-accurate crossbar pipeline,
with an instrumented cycle-level RED run (trace + counters) at the end.

Usage::

    python examples/design_tradeoff_exploration.py
"""

import numpy as np

from repro.core.tradeoff import explore_fold_tradeoff
from repro.deconv.shapes import DeconvSpec
from repro.reram.noise import NoiseModel
from repro.reram.pipeline import CrossbarPipeline
from repro.sim.engine import CycleEngine
from repro.utils.formatting import (
    format_area,
    format_joules,
    format_seconds,
    render_ascii_table,
)
from repro.workloads.specs import get_layer


def explore_fold() -> None:
    spec = get_layer("FCN_Deconv2").spec
    points = explore_fold_tradeoff(spec, folds=(1, 2, 4, 8, 16))
    rows = [
        (
            p.fold,
            p.num_physical_scs,
            p.cycles,
            format_seconds(p.latency),
            format_joules(p.energy),
            format_area(p.area),
        )
        for p in points
    ]
    print(
        render_ascii_table(
            ("fold", "physical SCs", "cycles", "latency", "energy", "area"),
            rows,
            title="Sec. III-C: fold trade-off on FCN_Deconv2 (paper picks fold=2)",
        )
    )


def explore_fidelity() -> None:
    rng = np.random.default_rng(0)
    w = rng.integers(-127, 128, size=(128, 16))
    x = rng.integers(0, 256, size=(16, 128))
    exact = x @ w

    rows = []
    for adc_bits in (None, 8, 6, 4):
        out = CrossbarPipeline(w, adc_bits=adc_bits).matmul(x).values
        err = np.abs(out - exact).mean() / np.abs(exact).mean()
        label = "lossless" if adc_bits is None else f"{adc_bits} bits"
        rows.append((label, f"{err * 100:.3f}%"))
    for sigma in (0.02, 0.1):
        pipe = CrossbarPipeline(w, noise=NoiseModel(programming_sigma=sigma, seed=1))
        err = np.abs(pipe.matmul(x).values - exact).mean() / np.abs(exact).mean()
        rows.append((f"variation sigma={sigma}", f"{err * 100:.3f}%"))
    print(
        render_ascii_table(
            ("configuration", "relative error"),
            rows,
            title="ReRAM pipeline fidelity (128-row crossbar, 8b weights/inputs)",
        )
    )


def instrumented_run() -> None:
    spec = DeconvSpec(4, 4, 8, 4, 4, 4, stride=2, padding=1)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(spec.input_shape)
    w = rng.standard_normal(spec.kernel_shape)
    run = CycleEngine(spec).run(x, w)
    print(f"Instrumented RED run on {spec.describe()}:")
    for name, value in run.counters:
        print(f"  {name:>14}: {value}")
    print("  first trace events:")
    for event in list(run.trace.events())[:6]:
        print(f"    {event}")


def main() -> None:
    explore_fold()
    print()
    explore_fidelity()
    print()
    instrumented_run()


if __name__ == "__main__":
    main()
