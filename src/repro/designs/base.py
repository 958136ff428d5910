"""The common accelerator-design interface.

Every design is simultaneously:

1. a *functional simulator* — :meth:`DeconvDesign.run_functional` executes
   the layer through the design's own dataflow and must reproduce the
   scatter reference bit-for-bit (property-tested);
2. a *quantized simulator* — :meth:`DeconvDesign.run_quantized` drives the
   full ReRAM pipeline (bit-sliced differential crossbars, bit-serial
   inputs, ADC, shift-add) on integer tensors; and
3. a *performance model* — :meth:`DeconvDesign.perf_input` reduces the
   dataflow to the counts the analytical evaluator consumes.

Keeping the three views on one class guarantees the cycle counts the
performance model claims are the cycle counts the functional scheduler
actually executes (asserted in the integration tests).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.arch.breakdown import DesignMetrics
from repro.arch.metrics import evaluate_design
from repro.arch.perf_input import DesignPerfInput
from repro.arch.tech import TechnologyParams, default_tech
from repro.deconv.shapes import DeconvSpec
from repro.errors import ShapeError


@dataclass
class FunctionalRun:
    """Result of executing a layer through a design's dataflow.

    Attributes:
        output: the ``(OH, OW, M)`` result tensor.
        cycles: compute rounds the schedule actually used.
        counters: free-form activity counters (vector feeds, non-zero
            elements, MACs, ...), design-specific but stable per design.
    """

    output: np.ndarray
    cycles: int
    counters: dict[str, int] = field(default_factory=dict)


class DeconvDesign(abc.ABC):
    """Abstract accelerator design bound to one layer specification."""

    #: Human-readable design name, set by subclasses.
    name: str = "abstract"

    def __init__(self, spec: DeconvSpec, tech: TechnologyParams | None = None) -> None:
        self.spec = spec
        self.tech = tech or default_tech()

    # ------------------------------------------------------------------
    # Functional simulation
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def run_functional(self, x: np.ndarray, w: np.ndarray) -> FunctionalRun:
        """Execute the layer through this design's dataflow (float64)."""

    @abc.abstractmethod
    def run_quantized(self, x_int: np.ndarray, w_int: np.ndarray) -> FunctionalRun:
        """Execute on integer tensors through the bit-accurate ReRAM path.

        ``x_int`` must be unsigned ``tech.bits_input``-bit activations and
        ``w_int`` signed ``tech.bits_weight``-bit weights; the output is
        the exact integer deconvolution (same contract as the float path).
        """

    # ------------------------------------------------------------------
    # Performance model
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def perf_input(self, layer_name: str = "") -> DesignPerfInput:
        """Closed-form geometry/activity counts for the evaluator."""

    def evaluate(self, layer_name: str = "") -> DesignMetrics:
        """Latency/energy/area breakdowns for this design on this layer."""
        return evaluate_design(self.perf_input(layer_name), self.tech)

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _check_float_operands(self, x: np.ndarray, w: np.ndarray) -> None:
        if tuple(x.shape) != self.spec.input_shape:
            raise ShapeError(f"input shape {x.shape} != spec {self.spec.input_shape}")
        if tuple(w.shape) != self.spec.kernel_shape:
            raise ShapeError(f"kernel shape {w.shape} != spec {self.spec.kernel_shape}")

    def _check_int_operands(self, x_int: np.ndarray, w_int: np.ndarray) -> None:
        self._check_float_operands(x_int, w_int)
        if not np.issubdtype(np.asarray(x_int).dtype, np.integer):
            raise ShapeError("run_quantized expects integer activations")
        if not np.issubdtype(np.asarray(w_int).dtype, np.integer):
            raise ShapeError("run_quantized expects integer weights")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(spec={self.spec.describe()!r})"
