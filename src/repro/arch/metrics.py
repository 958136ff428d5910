"""The analytical evaluator: DesignPerfInput -> latency/energy/area.

Implements Eq. 3 and Eq. 4 of the paper over the Table II component set.
All totals are per benchmark layer (one full deconvolution).  Each
breakdown function states its modelling assumptions; the calibration
notes are in :mod:`repro.arch.tech` and ``tests/arch/test_calibration.py``.
"""

from __future__ import annotations

import math

from repro.arch.breakdown import (
    AreaBreakdown,
    DesignMetrics,
    EnergyBreakdown,
    LatencyBreakdown,
)
from repro.arch.perf_input import DesignPerfInput
from repro.arch.tech import TechnologyParams, default_tech
from repro.arch.wires import WireModel


def latency_breakdown(
    perf: DesignPerfInput, tech: TechnologyParams | None = None
) -> LatencyBreakdown:
    """Total execution time per component (Eq. 3).

    Every compute round streams ``bits_input`` bit-serial pulses through
    the crossbars; row decode and column-mux settling happen once per
    round, ADC conversions are serialized ``mux_share`` deep per pulse,
    and the shift adder runs one stage per weight slice (plus any
    design-specific extra adds).
    """
    tech = tech or default_tech()
    wires = WireModel(tech)
    bits = tech.bits_input
    cycles = perf.cycles
    phys_cols = perf.wordline_cols * tech.phys_cols_per_weight

    wd_cycle = wires.wordline_delay(phys_cols)
    if perf.broadcast_instances > 1:
        wd_cycle += tech.t_broadcast_per_log2 * math.log2(perf.broadcast_instances)
    bd_cycle = wires.bitline_delay(perf.bitline_rows)
    max_bank_rows = max(bank.rows for bank in perf.decoder_banks)
    dec_cycle = tech.t_dec_base + tech.t_dec_per_log2_row * math.log2(max(max_bank_rows, 2))
    rc_cycle = bits * tech.mux_share * tech.t_adc
    sa_cycle = bits * (tech.num_slices + perf.sa_extra_ops_per_value) * tech.t_sa

    return LatencyBreakdown(
        wordline=cycles * bits * wd_cycle,
        bitline=cycles * bits * bd_cycle,
        decoder=cycles * dec_cycle,
        mux=cycles * tech.t_mux,
        read_circuit=cycles * rc_cycle,
        shift_adder=cycles * sa_cycle,
    )


def energy_breakdown(
    perf: DesignPerfInput, tech: TechnologyParams | None = None
) -> EnergyBreakdown:
    """Total energy per component (Eq. 4).

    Computation charges only *useful* MACs (inserted zeros draw no array
    current, so all three designs share the same compute energy).  The
    decoder/input path is charged per selected row every cycle — the term
    the zero-padding design wastes stride^2-fold and RED's pixel-wise
    split shrinks ("thereby decoders consume less energy", Sec. IV-B2).
    """
    tech = tech or default_tech()
    wires = WireModel(tech)
    cycles = perf.cycles
    phys_cols = perf.wordline_cols * tech.phys_cols_per_weight

    # Wordline *data* drivers only pulse rows with live inputs (gated on
    # zero operands), so ZP and RED spend identical WL energy per useful
    # MAC; padding-free pays the quadratic wide-row penalty instead.
    e_wd = perf.live_row_cycles_total * wires.wordline_energy_per_row(phys_cols)
    e_bd = cycles * wires.bitline_energy(
        perf.total_cells_logical * tech.phys_cols_per_weight
    )
    e_dec_cycle = sum(
        bank.count * (tech.e_dec_fixed + tech.e_dec_per_row * bank.rows)
        for bank in perf.decoder_banks
    )
    e_dec = cycles * (e_dec_cycle + tech.e_cycle_fixed)

    conversions = (
        cycles * perf.conv_values_per_cycle * tech.bits_input * tech.phys_cols_per_weight
    )
    e_mux = conversions * tech.e_mux
    e_rc = conversions * tech.e_adc
    extra_ops = cycles * perf.conv_values_per_cycle * perf.sa_extra_ops_per_value
    e_sa = (conversions + extra_ops) * tech.e_sa

    e_overlap = 0.0
    if perf.overlap_adder_cols:
        e_overlap = cycles * perf.conv_values_per_cycle * tech.e_overlap_add
    e_crop = perf.crop_values_total * tech.e_crop

    return EnergyBreakdown(
        computation=tech.e_mac * perf.useful_macs,
        wordline=e_wd,
        bitline=e_bd,
        decoder=e_dec,
        mux=e_mux,
        read_circuit=e_rc,
        shift_adder=e_sa,
        extra_adder=e_overlap,
        crop=e_crop,
    )


def area_breakdown(
    perf: DesignPerfInput, tech: TechnologyParams | None = None
) -> AreaBreakdown:
    """Silicon area per component (Fig. 9 accounting).

    The cell array (``computation``) depends only on the weight count, so
    all three designs match exactly — the paper's "identical array area".
    Row-side periphery (decoder bucket) scales with row count plus a fixed
    cost per crossbar instance, which is where RED's sub-crossbar split
    pays; column-side periphery scales with ADC-visible width, which is
    where padding-free pays.
    """
    tech = tech or default_tech()
    cells = perf.total_cells_logical * tech.phys_cols_per_weight
    a_array = cells * tech.cell_area_m2

    total_rows = sum(bank.rows * bank.count for bank in perf.decoder_banks)
    a_row = (
        total_rows * tech.a_row_per_row
        + perf.row_bank_instances * tech.a_row_bank_fixed
    )
    if perf.broadcast_instances > 1:
        a_row += perf.row_bank_instances * tech.a_router_per_instance

    set_width_phys = max(perf.col_set_width, 1) * tech.phys_cols_per_weight
    adcs_per_set = math.ceil(set_width_phys / tech.mux_share)
    a_mux = perf.col_periphery_sets * set_width_phys * tech.a_col_per_col
    a_rc = perf.col_periphery_sets * (
        adcs_per_set * tech.a_adc + tech.a_col_set_fixed
    )
    a_sa = perf.col_periphery_sets * set_width_phys * tech.a_sa_per_col

    a_overlap = (
        perf.overlap_adder_cols * tech.phys_cols_per_weight * tech.a_overlap_adder_per_col
    )
    a_crop = tech.a_crop_unit if perf.has_crop_unit else 0.0

    return AreaBreakdown(
        computation=a_array,
        decoder=a_row,
        mux=a_mux,
        read_circuit=a_rc,
        shift_adder=a_sa,
        extra_adder=a_overlap,
        crop=a_crop,
    )


def evaluate_design(
    perf: DesignPerfInput, tech: TechnologyParams | None = None
) -> DesignMetrics:
    """Full latency/energy/area evaluation of one (design, layer) pair."""
    tech = tech or default_tech()
    return DesignMetrics(
        design=perf.design,
        layer=perf.layer,
        latency=latency_breakdown(perf, tech),
        energy=energy_breakdown(perf, tech),
        area=area_breakdown(perf, tech),
        cycles=perf.cycles,
    )
