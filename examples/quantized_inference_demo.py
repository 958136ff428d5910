"""Bit-accurate ReRAM inference: a GAN layer end to end on real hardware
arithmetic.

Takes an SNGAN-style up-sampling layer (reduced channels so the
cycle-accurate pipeline runs in seconds), quantizes activations and
weights to 8 bits, executes it on RED's per-sub-crossbar ReRAM pipelines
(differential 2-bit cells, bit-serial inputs, lossless ADCs, shift-add),
and compares against float — then repeats with reduced ADC resolution and
programming variation to show the degradation a designer must budget.

Usage::

    python examples/quantized_inference_demo.py
"""

import numpy as np

from repro.core.red_design import REDDesign
from repro.deconv.reference import conv_transpose2d
from repro.deconv.shapes import DeconvSpec
from repro.eval.accuracy import layer_accuracy_study
from repro.nn.quantize import quantize_tensor, symmetric_quant_params
from repro.utils.formatting import render_ascii_table


def main() -> None:
    # SNGAN block-1 geometry at 1/16 channel width: 4x4x32 -> 8x8x16.
    spec = DeconvSpec(
        input_height=4, input_width=4, in_channels=32,
        kernel_height=4, kernel_width=4, out_channels=16,
        stride=2, padding=1,
    )
    rng = np.random.default_rng(0)
    x = np.maximum(rng.standard_normal(spec.input_shape), 0.0)
    w = rng.normal(0.0, 0.05, size=spec.kernel_shape)
    reference = conv_transpose2d(x, w, spec)

    # Quantize to the accelerator's number format.
    x_params = symmetric_quant_params(x, bits=8, signed=False)
    w_params = symmetric_quant_params(w, bits=8, signed=True)
    x_int = quantize_tensor(x, x_params)
    w_int = quantize_tensor(w, w_params)

    # Cycle-accurate RED with per-SC ReRAM pipelines.
    design = REDDesign(spec)
    run = design.run_quantized(x_int, w_int)
    approx = run.output * x_params.scale * w_params.scale
    rel_err = np.abs(approx - reference).mean() / np.abs(reference).mean()
    print(
        f"RED bit-accurate run: {run.cycles} cycles on "
        f"{run.counters['sub_crossbars']} sub-crossbars, "
        f"{run.counters['sc_matvecs']} SC activations"
    )
    print(f"relative error vs float: {rel_err * 100:.3f}% (8-bit quantization)")

    # Exactness check: the integer result equals the integer reference.
    int_ref = conv_transpose2d(
        x_int.astype(float), w_int.astype(float), spec
    ).astype(np.int64)
    assert np.array_equal(run.output, int_ref)
    print("integer output is bit-exact against the integer reference\n")

    # Degradation sweep through the same arithmetic.
    points = layer_accuracy_study(
        spec, adc_bits_sweep=(8, 6, 4), sigma_sweep=(0.02, 0.05, 0.1)
    )
    rows = [
        (p.label, f"{p.relative_error * 100:.3f}%", f"{p.snr_db:.1f} dB")
        for p in points
    ]
    print(
        render_ascii_table(
            ("configuration", "relative error", "SNR"),
            rows,
            title="Hardware fidelity sweep (same layer)",
        )
    )


if __name__ == "__main__":
    main()
