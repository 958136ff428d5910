"""RED: A ReRAM-based Deconvolution Accelerator — full reproduction.

Reproduces Fan, Li, Li, Chen & Li, *RED: A ReRAM-based Deconvolution
Accelerator*, DATE 2019 (arXiv:1907.02987): the pixel-wise mapping and
zero-skipping data flow, the two baseline designs it is compared against,
the ReRAM crossbar substrate they all run on, a NeuroSim+-style
latency/energy/area model, and the full evaluation (Tables I-II,
Figs. 4, 7, 8, 9).

Quickstart::

    import numpy as np
    from repro.core.red_design import REDDesign
    from repro.deconv.reference import conv_transpose2d
    from repro.deconv.shapes import DeconvSpec

    spec = DeconvSpec(4, 4, 8, 4, 4, 5, stride=2, padding=1)
    rng = np.random.default_rng(0)
    x = rng.random(spec.input_shape)
    w = rng.random(spec.kernel_shape)
    run = REDDesign(spec).run_functional(x, w)
    assert np.allclose(run.output, conv_transpose2d(x, w, spec))
    print(REDDesign(spec).evaluate("demo").latency.total)

See README.md for the package map and EXPERIMENTS.md for the
paper-vs-measured comparison.
"""
