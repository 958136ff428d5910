"""1T1R ReRAM cell model.

The paper's platform uses a 1T1R cell at 65 nm driven at 2 GHz.  A cell
stores ``bits_per_cell`` bits as one of ``2^bits_per_cell`` conductance
levels spaced uniformly between ``1/r_off`` and ``1/r_on``; during compute,
a read-voltage pulse on the wordline produces a bitline current
``I = V * G`` summed with its column neighbours (Kirchhoff).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DeviceError
from repro.utils.validation import check_positive_float, check_positive_int


@dataclass(frozen=True)
class ReRAMDeviceParams:
    """Electrical parameters of one 1T1R ReRAM cell.

    Defaults follow the HfOx-class devices NeuroSim+ models at 65 nm:
    100 kOhm LRS, 1 MOhm HRS, 0.3 V read pulses, 2 bits per cell.
    """

    r_on: float = 100e3
    r_off: float = 1e6
    read_voltage: float = 0.3
    write_voltage: float = 2.0
    bits_per_cell: int = 2
    cell_area_factor: float = 12.0  # 1T1R footprint in F^2
    #: Level spacing: "conductance" (uniform G steps — required for exact
    #: analog readback, see ``conductance_grid``) or "resistance" (uniform
    #: R steps — simpler to program but non-linear in current).
    grid_mode: str = "conductance"

    def __post_init__(self) -> None:
        check_positive_float(self.r_on, "r_on")
        check_positive_float(self.r_off, "r_off")
        check_positive_float(self.read_voltage, "read_voltage")
        check_positive_float(self.write_voltage, "write_voltage")
        check_positive_int(self.bits_per_cell, "bits_per_cell")
        if self.r_off <= self.r_on:
            raise DeviceError(
                f"r_off ({self.r_off}) must exceed r_on ({self.r_on}); "
                "the HRS/LRS window would be empty"
            )
        if self.grid_mode not in ("conductance", "resistance"):
            raise DeviceError(
                f"grid_mode must be 'conductance' or 'resistance', got "
                f"{self.grid_mode!r}"
            )

    @property
    def g_min(self) -> float:
        """HRS conductance, ``1 / r_off``."""
        return 1.0 / self.r_off

    @property
    def g_max(self) -> float:
        """LRS conductance, ``1 / r_on``."""
        return 1.0 / self.r_on

    @property
    def num_levels(self) -> int:
        """Programmable conductance levels, ``2^bits_per_cell``."""
        return 1 << self.bits_per_cell


def conductance_grid(params: ReRAMDeviceParams) -> np.ndarray:
    """Conductance grid for the cell's levels, level 0 = HRS.

    In the default ``"conductance"`` mode levels are spaced uniformly in
    conductance, which makes the analog column current an exact affine
    image of the stored integer — the property the bit-accurate pipeline
    relies on: ``I_col = V * (g_min * n_rows + dG * sum(digits))``.

    The ``"resistance"`` mode spaces levels uniformly in resistance
    instead; currents are then *non-linear* in the digit value, which is
    why practical multi-level PIM cells are programmed on a conductance
    grid (demonstrated in ``tests/reram/test_device.py``).
    """
    if params.grid_mode == "resistance":
        resistances = np.linspace(params.r_off, params.r_on, params.num_levels)
        return 1.0 / resistances
    return np.linspace(params.g_min, params.g_max, params.num_levels)


def digits_to_conductance(digits: np.ndarray, params: ReRAMDeviceParams) -> np.ndarray:
    """Map an integer digit array (values in ``[0, levels)``) to conductances."""
    digits = np.asarray(digits)
    if digits.size and (digits.min() < 0 or digits.max() >= params.num_levels):
        raise DeviceError(
            f"digits outside [0, {params.num_levels}): "
            f"range [{digits.min()}, {digits.max()}]"
        )
    grid = conductance_grid(params)
    return grid[digits.astype(np.int64)]


def conductance_to_digits(g: np.ndarray, params: ReRAMDeviceParams) -> np.ndarray:
    """Invert :func:`digits_to_conductance` by nearest-level matching."""
    grid = conductance_grid(params)
    g = np.asarray(g, dtype=np.float64)
    return np.abs(g[..., None] - grid).argmin(axis=-1)
