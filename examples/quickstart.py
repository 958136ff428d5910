"""Quickstart: map one deconvolution layer onto RED and the two baselines.

Runs a small transposed-convolution layer through all three accelerator
designs, verifies every dataflow reproduces the mathematical reference
bit-for-bit, prints the latency/energy/area comparison the paper's
evaluation is built on, and finishes with the same evaluation through
the typed service API (a ``schema_version``-tagged JSON payload).

Usage::

    python examples/quickstart.py
"""

import json

import numpy as np

from repro.api.schema import EvaluationRequest
from repro.api.service import RedService
from repro.core.red_design import REDDesign
from repro.deconv.reference import conv_transpose2d
from repro.deconv.shapes import DeconvSpec
from repro.designs.padding_free_design import PaddingFreeDesign
from repro.designs.zero_padding_design import ZeroPaddingDesign
from repro.utils.formatting import (
    format_area,
    format_joules,
    format_ratio,
    format_seconds,
    render_ascii_table,
)


def main() -> None:
    # A GAN-style up-sampling layer: 8x8x64 -> 16x16x32, 4x4 kernel, stride 2.
    spec = DeconvSpec(
        input_height=8, input_width=8, in_channels=64,
        kernel_height=4, kernel_width=4, out_channels=32,
        stride=2, padding=1,
    )
    print(f"Layer: {spec.describe()}\n")

    rng = np.random.default_rng(0)
    x = np.maximum(rng.standard_normal(spec.input_shape), 0.0)
    w = rng.normal(0.0, 0.05, size=spec.kernel_shape)
    reference = conv_transpose2d(x, w, spec)

    designs = [ZeroPaddingDesign(spec), PaddingFreeDesign(spec), REDDesign(spec)]

    # 1. Functional equivalence: every dataflow computes the same tensor.
    for design in designs:
        run = design.run_functional(x, w)
        assert np.allclose(run.output, reference), design.name
        print(f"{design.name:>14}: output matches reference, {run.cycles} cycles")

    # 2. Performance model: the paper's comparison, normalized to zero-padding.
    baseline = designs[0].evaluate("quickstart")
    rows = []
    for design in designs:
        m = design.evaluate("quickstart")
        rows.append(
            (
                design.name,
                m.cycles,
                format_seconds(m.latency.total),
                format_ratio(m.speedup_over(baseline)),
                format_joules(m.energy.total),
                f"{m.energy_saving_over(baseline) * 100:.1f}%",
                format_area(m.area.total),
            )
        )
    print()
    print(
        render_ascii_table(
            ("design", "cycles", "latency", "speedup", "energy", "saving", "area"),
            rows,
            title="Design comparison (vs zero-padding baseline)",
        )
    )

    red = REDDesign(spec)
    print(
        f"\nRED maps the kernel onto {red.num_physical_scs} sub-crossbars "
        f"and computes {spec.stride ** 2} output pixels per cycle "
        "(pixel-wise mapping + zero-skipping data flow)."
    )

    # 3. The same evaluation through the typed service API: a versioned,
    #    machine-readable payload (what `repro ... --json` emits).
    result = RedService().evaluate(
        EvaluationRequest(spec=spec, layer_name="quickstart")
    )
    payload = result.to_dict()
    print(
        f"\nService API payload (schema_version {payload['schema_version']}):"
    )
    print(
        json.dumps(
            {
                "kind": payload["kind"],
                "schema_version": payload["schema_version"],
                "layer": payload["layer"],
                "designs": payload["designs"],
                "cycles": [m["cycles"] for m in payload["metrics"]],
            },
            indent=2,
        )
    )


if __name__ == "__main__":
    main()
