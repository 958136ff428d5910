"""FCN-8s semantic-segmentation up-sampling on RED.

The FCN regime is the opposite corner from GANs: tiny channel counts (21
PASCAL-VOC classes) but huge spatial extents and strides up to 8, where
RED's zero-skipping parallelism peaks (the paper's 31.15x headline) and
the area-efficient fold (Eq. 2) becomes necessary — 256 kernel taps would
need 256 sub-crossbars; folding runs them on 128.

Usage::

    python examples/fcn_upsampling_on_red.py
"""

import numpy as np

from repro.core.red_design import REDDesign
from repro.deconv.reference import conv_transpose2d
from repro.designs.padding_free_design import PaddingFreeDesign
from repro.designs.zero_padding_design import ZeroPaddingDesign
from repro.utils.formatting import format_ratio, format_seconds, render_ascii_table
from repro.workloads.networks import FCN8sDecoder
from repro.workloads.specs import get_layer


def main() -> None:
    head = FCN8sDecoder()
    rng = np.random.default_rng(0)
    score_fr = rng.standard_normal((1, 21, 16, 16))
    scores = head(score_fr)
    prediction = scores.argmax(axis=1)
    print(f"FCN-8s head: 16x16 class scores -> {scores.shape[2]}x{scores.shape[3]} map")
    print(f"predicted classes present: {np.unique(prediction)[:8]} ...\n")

    # Functional cross-check of the first (2x) up-sampling layer on RED.
    layer1 = get_layer("FCN_Deconv1")
    x_hwc = np.transpose(score_fr[0], (1, 2, 0))
    red_run = REDDesign(layer1.spec).run_functional(x_hwc, head.upscore2.weight)
    ref = conv_transpose2d(x_hwc, head.upscore2.weight, layer1.spec)
    assert np.allclose(red_run.output, ref)
    print("RED functional output matches the network's 2x up-sampling exactly.\n")

    # Paper-style comparison on both FCN benchmark layers.
    rows = []
    for name in ("FCN_Deconv1", "FCN_Deconv2"):
        layer = get_layer(name)
        base = ZeroPaddingDesign(layer.spec).evaluate(name)
        pf = PaddingFreeDesign(layer.spec).evaluate(name)
        red_design = REDDesign(layer.spec)
        red = red_design.evaluate(name)
        rows.append(
            (
                name,
                f"stride {layer.spec.stride}",
                f"{red_design.num_physical_scs} SCs (fold {red_design.fold})",
                format_seconds(base.latency.total),
                format_seconds(pf.latency.total),
                format_seconds(red.latency.total),
                format_ratio(red.speedup_over(base)),
                f"{red.energy_saving_over(base) * 100:.1f}%",
            )
        )
    print(
        render_ascii_table(
            (
                "layer", "config", "RED mapping", "zero-padding latency",
                "padding-free latency", "RED latency", "speedup", "energy saving",
            ),
            rows,
            title="FCN up-sampling layers (Table I rows 5-6)",
        )
    )

    layer2 = get_layer("FCN_Deconv2")
    red2 = REDDesign(layer2.spec)
    print(
        f"\nFCN_Deconv2: {layer2.spec.num_kernel_taps} kernel taps fold onto "
        f"{red2.num_physical_scs} physical sub-crossbars; each round takes "
        f"{red2.fold} cycles and yields {layer2.spec.stride ** 2} output pixels "
        f"per feature map — {red2.cycles} rounds total vs "
        f"{layer2.spec.num_output_pixels} for zero-padding."
    )


if __name__ == "__main__":
    main()
