"""Conductance retention drift.

ReRAM cells lose conductance over time (filament relaxation); the usual
model is a power law ``G(t) = G0 * (t / t0) ^ (-nu)`` with a small drift
exponent ``nu``.  This module applies drift to programmed arrays and
measures the induced arithmetic error — the data for a retention-vs-
accuracy study the paper leaves to future work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError
from repro.reram.device import ReRAMDeviceParams
from repro.utils.validation import check_positive_float


@dataclass(frozen=True)
class DriftModel:
    """Power-law retention drift.

    Attributes:
        nu: drift exponent (typical HfOx values 0.005-0.1).
        t0: reference time at which the programmed state is exact, seconds.
    """

    nu: float = 0.02
    t0: float = 1.0

    def __post_init__(self) -> None:
        if self.nu < 0.0:
            raise ParameterError(f"nu must be >= 0, got {self.nu}")
        check_positive_float(self.t0, "t0")

    def conductance_at(self, g0: np.ndarray, t: float, device: ReRAMDeviceParams) -> np.ndarray:
        """Drifted conductances at time ``t`` (clipped to the device window).

        Drift acts on the programmable window above HRS: the filament
        relaxes toward the high-resistance state, so ``G - g_min`` decays
        while fully-reset cells stay put.
        """
        check_positive_float(t, "t")
        if t <= self.t0:
            return np.asarray(g0, dtype=np.float64).copy()
        factor = (t / self.t0) ** (-self.nu)
        drifted = device.g_min + (np.asarray(g0, dtype=np.float64) - device.g_min) * factor
        return np.clip(drifted, device.g_min, device.g_max)
