"""NeuroSim+-style analytical architecture model (65 nm, 2 GHz).

Estimates latency, energy and area of a deconvolution accelerator design
from its crossbar geometry and per-cycle activity.  The component taxonomy
follows the paper's Table II:

* array: computation (c), wordline driving (wd), bitline driving (bd)
* periphery: multiplexer (mux), decoder (dec), read circuit (rc),
  shift adder (sa)

plus the padding-free design's extra overlap-adder and crop units.
Constants live in :class:`repro.arch.tech.TechnologyParams`; they are
*calibrated* to reproduce the paper's relative results (see
:mod:`repro.arch.tech` and ``tests/arch/test_calibration.py``).
"""

from repro.arch.breakdown import (
    TABLE_II_COMPONENTS,
    AreaBreakdown,
    DesignMetrics,
    EnergyBreakdown,
    LatencyBreakdown,
)
from repro.arch.metrics import evaluate_design
from repro.arch.metrics_batch import (
    PerfInputBatch,
    area_breakdown_batch,
    energy_breakdown_batch,
    evaluate_perf_batch,
    latency_breakdown_batch,
)
from repro.arch.perf_input import DecoderBank, DesignPerfInput
from repro.arch.tech import TechnologyParams, default_tech
from repro.arch.wires import WireModel

__all__ = [
    "TechnologyParams",
    "default_tech",
    "TABLE_II_COMPONENTS",
    "LatencyBreakdown",
    "EnergyBreakdown",
    "AreaBreakdown",
    "DesignMetrics",
    "DesignPerfInput",
    "DecoderBank",
    "evaluate_design",
    "PerfInputBatch",
    "latency_breakdown_batch",
    "energy_breakdown_batch",
    "area_breakdown_batch",
    "evaluate_perf_batch",
    "WireModel",
]
