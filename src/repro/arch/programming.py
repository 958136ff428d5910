"""Kernel programming (weight-loading) cost model.

Before a layer can run, its weights must be written into the crossbar
cells with write-verify pulses.  Programming is a one-time cost per
deployed kernel (all three designs store the same cells, so it is
design-independent), but it matters for training-in-the-loop scenarios
and for amortization arguments — hence a separate model rather than a
Table II component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.tech import TechnologyParams, default_tech
from repro.deconv.shapes import DeconvSpec
from repro.reram.bitslice import WeightSlicing, slice_weights
from repro.reram.device import ReRAMDeviceParams
from repro.reram.noise import NoiseModel
from repro.reram.program import WriteVerifyProgrammer

#: Energy of one write pulse (SET/RESET at elevated voltage), joules.
WRITE_PULSE_ENERGY = 10e-12
#: Duration of one write pulse plus verify read, seconds.
WRITE_PULSE_TIME = 50e-9
#: Rows written concurrently during programming.
PARALLEL_WRITE_ROWS = 1


@dataclass(frozen=True)
class ProgrammingCost:
    """Cost of loading one layer's kernel into the array.

    Attributes:
        cells: physical cells programmed (slices x differential pairs).
        pulses: total write pulses including re-writes.
        energy: joules.
        latency: seconds (row-serial write-verify).
        converged_fraction: cells verified at their target level.
    """

    cells: int
    pulses: int
    energy: float
    latency: float
    converged_fraction: float


def programming_cost(
    spec: DeconvSpec,
    tech: TechnologyParams | None = None,
    noise: NoiseModel | None = None,
    seed: int = 0,
    max_iterations: int = 10,
) -> ProgrammingCost:
    """Estimate the write-verify cost of one layer's kernel.

    A representative weight tensor is drawn (programming cost depends on
    digit statistics, not exact values), sliced into cell digits, and
    pushed through the :class:`WriteVerifyProgrammer`; pulse counts scale
    up to the full cell population.
    """
    tech = tech or default_tech()
    slicing = WeightSlicing(tech.bits_weight, tech.bits_per_cell)
    rng = np.random.default_rng(seed)
    limit = 1 << (tech.bits_weight - 1)
    # Sample a bounded sub-population to keep the model cheap, then scale.
    sample_weights = rng.integers(-limit + 1, limit, size=(min(spec.num_weights, 4096),))
    pos, neg = slice_weights(sample_weights, slicing)
    sample_digits = np.concatenate([pos, neg], axis=-1).reshape(-1, slicing.num_slices * 2)
    device = ReRAMDeviceParams(bits_per_cell=tech.bits_per_cell)
    programmer = WriteVerifyProgrammer(
        device=device, noise=noise, max_iterations=max_iterations
    )
    result = programmer.program(sample_digits)

    total_cells = spec.num_weights * tech.phys_cols_per_weight
    scale = total_cells / sample_digits.size
    pulses = int(round(result.total_pulses * scale))
    energy = pulses * WRITE_PULSE_ENERGY
    latency = pulses * WRITE_PULSE_TIME / PARALLEL_WRITE_ROWS
    return ProgrammingCost(
        cells=total_cells,
        pulses=pulses,
        energy=energy,
        latency=latency,
        converged_fraction=result.converged_fraction,
    )
