"""The design x layer evaluation grid.

Runs every accelerator design over every Table I layer through the
analytical model and caches the :class:`DesignMetrics`, which the figure
generators then slice.  Normalization follows the paper: all results are
reported relative to the zero-padding design.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.registry import baseline_design
from repro.arch.breakdown import DesignMetrics
from repro.arch.tech import TechnologyParams, default_tech
from repro.workloads.specs import BenchmarkLayer


@dataclass
class EvaluationGrid:
    """All metrics for the design x layer grid.

    Attributes:
        metrics: ``metrics[layer_name][design_name]`` -> DesignMetrics.
        layers: the evaluated benchmark layers in order.
    """

    metrics: dict[str, dict[str, DesignMetrics]]
    layers: tuple[BenchmarkLayer, ...]
    tech: TechnologyParams = field(default_factory=default_tech)

    def get(self, layer: str, design: str) -> DesignMetrics:
        """Metrics for one (layer, design) pair."""
        return self.metrics[layer][design]

    def baseline(self, layer: str) -> DesignMetrics:
        """The baseline-design metrics the paper normalizes against."""
        return self.metrics[layer][baseline_design()]

    def speedup(self, layer: str, design: str) -> float:
        """Latency speedup of ``design`` over zero-padding."""
        return self.get(layer, design).speedup_over(self.baseline(layer))

    def energy_saving(self, layer: str, design: str) -> float:
        """Fractional energy saving of ``design`` vs zero-padding."""
        return self.get(layer, design).energy_saving_over(self.baseline(layer))

    def area_ratio(self, layer: str, design: str) -> float:
        """Total-area ratio of ``design`` vs zero-padding."""
        return self.get(layer, design).area.total / self.baseline(layer).area.total


def run_grid(
    layers: tuple[BenchmarkLayer, ...] | None = None,
    tech: TechnologyParams | None = None,
) -> EvaluationGrid:
    """Evaluate all registered designs over ``layers`` (default: Table I).

    Delegates to :meth:`repro.api.service.RedService.grid`, the single
    evaluation path: the grid is flattened into
    :class:`~repro.eval.parallel.DesignJob` entries and routed through
    :func:`~repro.eval.parallel.run_design_jobs`.  A caller repeating
    grids holds a ``RedService()`` and calls its ``grid`` instead, so
    the service's analytic memo serves the repeats.
    """
    from repro.api.service import RedService

    with RedService() as service:
        return service.grid(layers=layers, tech=tech)
