"""Technology parameters: 65 nm, 2 GHz, 1T1R (paper Sec. IV-A).

The latency/energy/area primitives below are first-order component models
in the NeuroSim+ tradition.  Their absolute values are *calibrated*, not
measured: the constants were fitted (see ``tests/arch/test_calibration.py``
and the bands in :mod:`repro.eval.paper_targets`) so the model reproduces
the paper's relative results — speedup bands, energy-saving bands,
array/periphery splits and area overheads — across the Table I layers.
Absolute seconds/joules are plausible for 65 nm but carry no silicon
pedigree, exactly like the original paper's simulator outputs.

Naming convention: ``t_*`` seconds, ``e_*`` joules, ``a_*`` square metres;
``_per_col`` / ``_per_row`` refer to *physical* columns/rows (a logical
weight column occupies ``num_slices * 2`` physical columns because of
bit-slicing and differential encoding).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import CalibrationError
from repro.utils.validation import check_positive_float, check_positive_int


@dataclass(frozen=True)
class TechnologyParams:
    """Calibrated 65 nm / 2 GHz technology and circuit constants."""

    # ------------------------------------------------------------------
    # Global
    # ------------------------------------------------------------------
    feature_size_m: float = 65e-9
    clock_hz: float = 2e9
    vdd: float = 1.1

    # Arithmetic format (ISAAC/PipeLayer-style)
    bits_input: int = 8
    bits_weight: int = 8
    bits_per_cell: int = 2
    differential: bool = True
    mux_share: int = 8  # columns per ADC

    # ------------------------------------------------------------------
    # Latency primitives (seconds)
    # ------------------------------------------------------------------
    t_wd_base: float = 0.50e-9        # wordline driver turn-on
    t_wd_per_col: float = 0.15e-12    # repeated-wire RC slope per column
    t_wd_quad: float = 1.7e-18        # unrepeated-wire quadratic term
    t_broadcast_per_log2: float = 0.12e-9  # RED input fan-out per log2(SCs)
    t_bd_base: float = 0.30e-9        # bitline precharge/settle
    t_bd_per_row: float = 0.20e-12    # slope per physical row
    t_dec_base: float = 0.25e-9
    t_dec_per_log2_row: float = 0.05e-9
    t_mux: float = 0.10e-9
    t_adc: float = 0.50e-9            # one conversion (shared per mux group)
    t_sa: float = 0.25e-9             # one shift-add stage

    # ------------------------------------------------------------------
    # Energy primitives (joules)
    # ------------------------------------------------------------------
    e_mac: float = 5.0e-15            # per useful MAC through the array
    e_wl_fixed: float = 0.40e-12      # per live row pulse (driver bias)
    e_wl_per_col: float = 0.50e-15    # per live row per physical column
    e_wl_quad: float = 2.0e-19        # per live row per physical column^2
    e_bd_per_cell: float = 0.45e-16   # bitline charge per cell per cycle
    e_dec_fixed: float = 1.0e-12      # per decoder bank per cycle
    e_dec_per_row: float = 3.0e-12    # per selected row per cycle
    e_cycle_fixed: float = 0.50e-9    # bank control + buffer per cycle
    e_mux: float = 0.02e-12           # per converted value
    e_adc: float = 3.0e-12            # per conversion
    e_sa: float = 0.05e-12            # per shift-add op
    e_overlap_add: float = 0.10e-12   # PF per overlap-added value
    e_crop: float = 0.02e-12          # PF per cropped (discarded) value

    # ------------------------------------------------------------------
    # Area primitives (square metres)
    # ------------------------------------------------------------------
    cell_area_factor: float = 12.0    # 1T1R cell in F^2
    a_row_per_row: float = 9.0e-12    # WL driver + decoder slice per row
    a_row_bank_fixed: float = 8.0e-9  # per crossbar-instance row bank
    a_router_per_instance: float = 2.0e-9   # RED input broadcast routing
    a_col_per_col: float = 1.5e-12    # mux + sense slice per physical column
    a_adc: float = 0.05e-9            # one ADC macro (compact SAR, 65 nm)
    a_sa_per_col: float = 0.4e-12     # shift-adder slice per physical column
    a_col_set_fixed: float = 5.0e-9   # per independently-sensed column group
    a_overlap_adder_per_col: float = 1.2e-12  # PF overlap-add per column
    a_crop_unit: float = 2.0e-9       # PF crop unit (one per design)

    def __post_init__(self) -> None:
        check_positive_float(self.feature_size_m, "feature_size_m")
        check_positive_float(self.clock_hz, "clock_hz")
        check_positive_int(self.bits_input, "bits_input")
        check_positive_int(self.bits_weight, "bits_weight")
        check_positive_int(self.bits_per_cell, "bits_per_cell")
        check_positive_int(self.mux_share, "mux_share")
        if self.bits_weight % self.bits_per_cell:
            raise CalibrationError(
                "bits_weight must be a multiple of bits_per_cell "
                f"({self.bits_weight} % {self.bits_per_cell})"
            )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def num_slices(self) -> int:
        """Weight digit slices per logical column."""
        return self.bits_weight // self.bits_per_cell

    @property
    def phys_cols_per_weight(self) -> int:
        """Physical columns per logical weight column (slices x differential)."""
        return self.num_slices * (2 if self.differential else 1)

    @property
    def cell_area_m2(self) -> float:
        """Area of one physical 1T1R cell."""
        return self.cell_area_factor * self.feature_size_m**2

    def with_overrides(self, **kwargs) -> "TechnologyParams":
        """Copy with selected constants replaced (for sweeps/ablations)."""
        return replace(self, **kwargs)


_DEFAULT = TechnologyParams()


def default_tech() -> TechnologyParams:
    """The calibrated default technology instance."""
    return _DEFAULT
