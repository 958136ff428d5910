"""Run a GAN generator's deconvolution layers on the RED accelerator.

Builds the SNGAN CIFAR-10 generator (the source of Table I's GAN_Deconv3),
generates an image batch with the NumPy substrate, then maps every
deconvolution layer onto the three accelerator designs and reports the
paper-style comparison — including a functional cross-check that RED's
zero-skipping dataflow computes exactly what the network computed.

Usage::

    python examples/gan_generator_on_red.py
"""

import numpy as np

from repro.api.registry import available_designs, baseline_design
from repro.api.schema import EvaluationRequest
from repro.api.service import RedService
from repro.core.red_design import REDDesign
from repro.deconv.reference import conv_transpose2d
from repro.utils.formatting import format_joules, format_ratio, format_seconds, render_ascii_table
from repro.workloads.data import latent_batch
from repro.workloads.networks import SNGANGenerator


def main() -> None:
    gen = SNGANGenerator(base_size=4, rng=np.random.default_rng(7))
    z = latent_batch(1, gen.latent_dim, seed=11)
    image = gen(z)
    print(f"SNGAN generator produced an image batch of shape {image.shape}")
    print(f"pixel range: [{image.min():.3f}, {image.max():.3f}] (tanh)\n")

    # Walk the generator, capturing each deconv layer's input activation.
    x = z.reshape(1, gen.latent_dim, 1, 1)
    x = gen.project(x)
    deconv_blocks = [("block1", gen.block1), ("block2", gen.block2), ("block3", gen.block3)]

    service = RedService()
    baseline = baseline_design()
    rows = []
    total = {design: 0.0 for design in available_designs()}
    energy = dict(total)
    for name, block in deconv_blocks:
        deconv = block[0]
        spec = deconv.deconv_spec(x.shape[2], x.shape[3])
        x_hwc = np.transpose(x[0], (1, 2, 0))

        # Functional cross-check on RED's dataflow.
        red_run = REDDesign(spec).run_functional(x_hwc, deconv.weight)
        ref = conv_transpose2d(x_hwc, deconv.weight, spec)
        assert np.allclose(red_run.output, ref), name

        # Performance model through the typed service API.
        result = service.evaluate(EvaluationRequest(spec=spec, layer_name=name))
        base = result.metrics_for(baseline)
        red = result.metrics_for("RED")
        rows.append(
            (
                name,
                spec.describe(),
                format_ratio(red.speedup_over(base)),
                f"{red.energy_saving_over(base) * 100:.1f}%",
            )
        )
        for dname, m in zip(result.designs, result.metrics):
            total[dname] += m.latency.total
            energy[dname] += m.energy.total
        x = block(x)

    print(
        render_ascii_table(
            ("layer", "shape", "RED speedup", "RED energy saving"),
            rows,
            title="Per-deconv-layer comparison (vs zero-padding)",
        )
    )

    print("\nWhole-generator deconvolution totals:")
    for dname in available_designs():
        print(
            f"  {dname:>14}: latency {format_seconds(total[dname]):>10}, "
            f"energy {format_joules(energy[dname]):>10}"
        )
    print(
        f"\n  RED end-to-end: {total['zero-padding'] / total['RED']:.2f}x faster, "
        f"{(1 - energy['RED'] / energy['zero-padding']) * 100:.1f}% less energy "
        "than the zero-padding design across the generator's deconv stack."
    )


if __name__ == "__main__":
    main()
