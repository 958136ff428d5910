"""Ablation: arithmetic fidelity of the ReRAM substrate.

Not a paper figure, but the design-choice evidence
:mod:`repro.reram.pipeline` states: with losslessly-sized ADCs the crossbar pipeline is bit-exact, and
accuracy degrades gracefully as ADC resolution shrinks or programming
variation grows.  Times the bit-accurate pipeline on a crossbar-sized
matmul.
"""

import numpy as np

from benchmarks.conftest import emit
from repro.reram.noise import NoiseModel
from repro.reram.pipeline import CrossbarPipeline
from repro.utils.formatting import render_ascii_table


def _relative_error(values, exact):
    return float(np.abs(values - exact).mean() / (np.abs(exact).mean() + 1e-12))


def test_adc_resolution_sweep(benchmark):
    rng = np.random.default_rng(0)
    w = rng.integers(-127, 128, size=(128, 16))
    x = rng.integers(0, 256, size=(8, 128))
    exact = x @ w

    def run_exact():
        return CrossbarPipeline(w).matmul(x).values

    values = benchmark(run_exact)
    assert np.array_equal(values, exact)

    rows = []
    for bits in (10, 8, 6, 4, 2):
        out = CrossbarPipeline(w, adc_bits=bits).matmul(x).values
        rows.append((bits, f"{_relative_error(out, exact) * 100:.3f}%"))
    errors = [float(e.rstrip("%")) for _, e in rows]
    assert errors == sorted(errors)  # monotone degradation
    emit(render_ascii_table(("ADC bits", "relative error"), rows,
                            title="ADC resolution ablation (128-row crossbar)"))


def test_programming_variation_sweep(benchmark):
    rng = np.random.default_rng(1)
    w = rng.integers(-127, 128, size=(64, 16))
    x = rng.integers(0, 256, size=(4, 64))
    exact = x @ w

    def run_sigma(sigma):
        pipe = CrossbarPipeline(w, noise=NoiseModel(programming_sigma=sigma, seed=2))
        return pipe.matmul(x).values

    benchmark(run_sigma, 0.1)
    rows = []
    for sigma in (0.0, 0.02, 0.05, 0.1, 0.2):
        rows.append((sigma, f"{_relative_error(run_sigma(sigma), exact) * 100:.3f}%"))
    assert float(rows[0][1].rstrip("%")) == 0.0
    emit(render_ascii_table(("programming sigma", "relative error"), rows,
                            title="Conductance-variation ablation"))
