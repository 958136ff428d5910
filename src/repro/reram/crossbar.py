"""Analog crossbar vector-matrix multiplication.

A :class:`CrossbarArray` holds a conductance matrix programmed from integer
digits and evaluates Kirchhoff-law column currents for binary wordline
pulses.  Non-idealities (conductance variation, read noise, first-order
IR drop) are opt-in via :class:`repro.reram.noise.NoiseModel` so the exact
integer pipeline and the degradation studies share one code path.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.reram.device import (
    ReRAMDeviceParams,
    conductance_grid,
    digits_to_conductance,
)
from repro.reram.noise import NoiseModel


class CrossbarArray:
    """One physical crossbar tile programmed with digit values.

    Args:
        digits: integer digit matrix ``(rows, cols)``; values in
            ``[0, 2^bits_per_cell)``.
        device: cell electrical parameters.
        noise: optional non-ideality model; ``None`` means ideal.
        wire_resistance: per-cell-segment wire resistance (ohms) used by the
            IR-drop approximation when ``noise.ir_drop`` is enabled.
    """

    def __init__(
        self,
        digits: np.ndarray,
        device: ReRAMDeviceParams | None = None,
        noise: NoiseModel | None = None,
        wire_resistance: float = 2.5,
    ) -> None:
        digits = np.asarray(digits)
        if digits.ndim != 2:
            raise ShapeError(f"digits must be 2-D (rows, cols), got ndim={digits.ndim}")
        self.device = device or ReRAMDeviceParams()
        self.noise = noise
        self.wire_resistance = wire_resistance
        self.digits = digits.astype(np.int64)
        conductance = digits_to_conductance(self.digits, self.device)
        if noise is not None:
            conductance = noise.apply_programming(conductance, self.device)
        self.conductance = conductance

    @property
    def rows(self) -> int:
        """Wordline count."""
        return self.digits.shape[0]

    @property
    def cols(self) -> int:
        """Bitline count."""
        return self.digits.shape[1]

    # ------------------------------------------------------------------
    # Analog evaluation
    # ------------------------------------------------------------------
    def column_currents(self, pulses: np.ndarray) -> np.ndarray:
        """Column currents (amperes) for one binary wordline pulse vector."""
        pulses = np.asarray(pulses)
        if pulses.shape != (self.rows,):
            raise ShapeError(
                f"pulse vector must be ({self.rows},), got {pulses.shape}"
            )
        voltages = pulses.astype(np.float64) * self.device.read_voltage
        effective_g = self.conductance
        if self.noise is not None and self.noise.ir_drop:
            effective_g = self._ir_drop_conductance(pulses)
        currents = voltages @ effective_g
        if self.noise is not None:
            currents = self.noise.apply_read(currents)
        return currents

    def _ir_drop_conductance(self, pulses: np.ndarray) -> np.ndarray:
        """First-order IR-drop attenuation.

        The voltage reaching cell ``(r, c)`` sags with the cumulative wire
        resistance of its row/column path and the current drawn by cells
        closer to the drivers.  We use the standard first-order bound: an
        attenuation factor per cell of
        ``1 / (1 + R_wire * (r + c) * G_cell_mean * n_active)`` — cheap,
        monotone in distance and load, and adequate for sensitivity studies
        (the paper itself evaluates ideal arrays via NeuroSim+).
        """
        n_active = max(int(np.sum(pulses != 0)), 1)
        r_idx = np.arange(self.rows)[:, None]
        c_idx = np.arange(self.cols)[None, :]
        g_mean = float(self.conductance.mean())
        atten = 1.0 / (
            1.0 + self.wire_resistance * (r_idx + c_idx) * g_mean * n_active
        )
        return self.conductance * atten

    # ------------------------------------------------------------------
    # Digital interpretation
    # ------------------------------------------------------------------
    def digit_sums(self, pulses: np.ndarray) -> np.ndarray:
        """Recover integer column sums from analog currents.

        With the uniform conductance grid, the current of column ``c`` for
        binary pulses ``b`` is ``V*(g_min * sum(b) + dG * sum(b * digit))``,
        so the integer partial sum is an exact affine readback.  This models
        the ideal integrate-and-fire read circuit; quantization/saturation
        is applied separately by :mod:`repro.reram.adc`.
        """
        currents = self.column_currents(pulses)
        grid = conductance_grid(self.device)
        delta_g = grid[1] - grid[0] if self.device.num_levels > 1 else 1.0
        active = float(np.sum(np.asarray(pulses) != 0))
        base = self.device.read_voltage * self.device.g_min * active
        sums = (currents - base) / (self.device.read_voltage * delta_g)
        return np.rint(sums).astype(np.int64)

    def ideal_digit_sums(self, pulses: np.ndarray) -> np.ndarray:
        """Integer column sums computed digitally (no analog path)."""
        pulses = np.asarray(pulses)
        if pulses.shape != (self.rows,):
            raise ShapeError(
                f"pulse vector must be ({self.rows},), got {pulses.shape}"
            )
        return pulses.astype(np.int64) @ self.digits
