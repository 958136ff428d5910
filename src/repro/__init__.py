"""RED: A ReRAM-based Deconvolution Accelerator — full reproduction.

Reproduces Fan, Li, Li, Chen & Li, *RED: A ReRAM-based Deconvolution
Accelerator*, DATE 2019 (arXiv:1907.02987): the pixel-wise mapping and
zero-skipping data flow, the two baseline designs it is compared against,
the ReRAM crossbar substrate they all run on, a NeuroSim+-style
latency/energy/area model, and the full evaluation (Tables I-II,
Figs. 4, 7, 8, 9).

Quickstart::

    import numpy as np
    from repro import DeconvSpec, REDDesign, conv_transpose2d

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

from repro.api import (
    EvaluationRequest,
    EvaluationResult,
    NetworkRequest,
    NetworkResult,
    RedService,
    SweepRequest,
    SweepResult,
    available_designs,
    register_design,
)
from repro.arch import DesignMetrics, TechnologyParams, default_tech
from repro.core import (
    REDDesign,
    SubCrossbarTensor,
    ZeroSkippingSchedule,
    build_sct,
    explore_fold_tradeoff,
)
from repro.deconv import (
    DeconvSpec,
    conv_transpose2d,
    padded_zero_fraction,
    zero_padding_deconv,
)
from repro.designs import DeconvDesign, FunctionalRun, PaddingFreeDesign, ZeroPaddingDesign
from repro.eval import full_report, run_grid
from repro.workloads import TABLE_I_LAYERS, get_layer

__version__ = "1.1.0"

__all__ = [
    "DeconvSpec",
    "conv_transpose2d",
    "zero_padding_deconv",
    "padded_zero_fraction",
    "ZeroPaddingDesign",
    "PaddingFreeDesign",
    "DeconvDesign",
    "FunctionalRun",
    "REDDesign",
    "build_sct",
    "SubCrossbarTensor",
    "ZeroSkippingSchedule",
    "explore_fold_tradeoff",
    "TechnologyParams",
    "default_tech",
    "DesignMetrics",
    "TABLE_I_LAYERS",
    "get_layer",
    "run_grid",
    "full_report",
    "EvaluationRequest",
    "EvaluationResult",
    "NetworkRequest",
    "NetworkResult",
    "RedService",
    "SweepRequest",
    "SweepResult",
    "available_designs",
    "register_design",
    "__version__",
]
