"""Vectorized analytic evaluation plane: arrays of jobs, one shot.

:mod:`repro.arch.metrics` evaluates one :class:`DesignPerfInput` at a
time — fine for a single layer, but every figure, ablation grid, stride
sweep and network mapping evaluates *thousands* of (design, layer, tech)
points whose Eq. 3/Eq. 4 math is pure elementwise arithmetic.  This
module is the struct-of-arrays twin of the scalar evaluator:

* :class:`PerfInputBatch` packs every :class:`DesignPerfInput` field
  (including per-bank decoder geometry) into flat NumPy arrays, one
  entry per job; :meth:`PerfInputBatch.concat` joins the batches of
  several design families end to end;
* :func:`latency_breakdown_batch` / :func:`energy_breakdown_batch` /
  :func:`area_breakdown_batch` evaluate Eq. 3 / Eq. 4 / the Fig. 9
  accounting as vectorized formulas over those arrays for one shared
  :class:`~repro.arch.tech.TechnologyParams`;
* :func:`evaluate_perf_batch` assembles the per-job
  :class:`~repro.arch.breakdown.DesignMetrics`;
  :func:`pack_metrics` / :func:`unpack_metrics` store a row's numbers
  as 224 bytes and rebuild it through the same assembly, pickle for
  pickle (the memo of :class:`~repro.api.service.RedService`).

Every formula is elementwise over jobs, so a job's result does not
depend on which other jobs share its batch: :mod:`repro.eval.vectorized`
evaluates all designs of one technology in a single call.

Bit-identity contract
---------------------
The scalar evaluator stays the oracle: for every job the batch result is
**float64 bit-identical** to :func:`repro.arch.metrics.evaluate_design`
(property-tested in ``tests/arch/test_metrics_batch.py``).  That falls
out of mirroring the scalar expression trees operation for operation —
same association order, same int-vs-float promotion points — plus
:func:`_exact_log2`, which routes the two logarithm sites through the
same ``math.log2`` call the scalar path makes (``np.log2`` may differ
from libm in the last ulp, so it is deliberately not used).

The design families derive batches closed-form via their
``perf_input_batch`` hooks (no per-job design objects); see
:mod:`repro.eval.vectorized` for the job-level entry point.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields
from itertools import repeat
from operator import attrgetter
from typing import Sequence

import numpy as np

from repro.arch.breakdown import (
    AreaBreakdown,
    DesignMetrics,
    EnergyBreakdown,
    LatencyBreakdown,
)
from repro.arch.perf_input import DesignPerfInput
from repro.arch.tech import TechnologyParams, default_tech
from repro.errors import ParameterError


def _exact_log2(values: np.ndarray) -> np.ndarray:
    """``math.log2`` applied elementwise, bit-identical to the scalar path.

    Maps the very libm call the scalar evaluator makes over the Python
    ints of ``values.tolist()``, so every entry is exact by
    construction.  Small requests pass a handful of rows, where
    deduplicating first (``np.unique``, then one call per distinct
    value) costs ~10x the plain map (15 vs 1.5 us at 5 rows on a
    2-vCPU host).  On large batches with few distinct values
    ``np.unique`` wins back a little (about 0.4 vs 1.0 ms over the
    9,888-job grid, under 1% of that call), which does not pay for a
    second code path.
    """
    return np.fromiter(map(math.log2, values.tolist()), np.float64, len(values))


#: The per-job 1-D array fields of :class:`PerfInputBatch`.
_JOB_COLUMNS = (
    "cycles", "wordline_cols", "bitline_rows", "rows_selected_per_cycle",
    "conv_values_per_cycle", "live_row_cycles_total", "useful_macs",
    "total_cells_logical", "broadcast_instances", "sa_extra_ops_per_value",
    "crop_values_total", "col_periphery_sets", "col_set_width",
    "row_bank_instances", "has_crop_unit", "overlap_adder_cols",
)


@dataclass(frozen=True, eq=False)
class PerfInputBatch:
    """Struct-of-arrays packing of many :class:`DesignPerfInput` records.

    Every 1-D field is a flat array of length ``len(batch)`` aligned
    with ``designs``/``layers``; the decoder banks are rectangular
    ``(jobs, max_banks)`` arrays padded with ``rows=0, count=0`` slots
    (a padded slot contributes exactly nothing to any Eq. 3/4 term).
    Counts keep the scalar field semantics — logical columns unless the
    name says physical — and the same int-vs-float split, so the batch
    formulas promote at the same points the scalar ones do.
    """

    designs: tuple[str, ...]
    layers: tuple[str, ...]
    cycles: np.ndarray                   # int64
    wordline_cols: np.ndarray            # int64
    bitline_rows: np.ndarray             # int64
    rows_selected_per_cycle: np.ndarray  # int64
    decoder_rows: np.ndarray             # int64, (jobs, max_banks)
    decoder_counts: np.ndarray           # int64, (jobs, max_banks)
    conv_values_per_cycle: np.ndarray    # float64
    live_row_cycles_total: np.ndarray    # float64
    useful_macs: np.ndarray              # int64
    total_cells_logical: np.ndarray      # int64
    broadcast_instances: np.ndarray      # int64
    sa_extra_ops_per_value: np.ndarray   # float64
    crop_values_total: np.ndarray        # int64
    col_periphery_sets: np.ndarray       # int64
    col_set_width: np.ndarray            # int64
    row_bank_instances: np.ndarray       # int64
    has_crop_unit: np.ndarray            # bool
    overlap_adder_cols: np.ndarray       # int64

    def __post_init__(self) -> None:
        jobs = len(self.designs)
        if len(self.layers) != jobs:
            raise ParameterError(
                f"{jobs} designs but {len(self.layers)} layer labels"
            )
        for name in _JOB_COLUMNS:
            array = getattr(self, name)
            if array.shape != (jobs,):
                raise ParameterError(
                    f"{name} must have shape ({jobs},), got {array.shape}"
                )
        if self.decoder_rows.shape != self.decoder_counts.shape or (
            self.decoder_rows.ndim != 2 or self.decoder_rows.shape[0] != jobs
        ):
            raise ParameterError(
                "decoder_rows/decoder_counts must both be (jobs, max_banks); "
                f"got {self.decoder_rows.shape} and {self.decoder_counts.shape}"
            )

    def __len__(self) -> int:
        return len(self.designs)

    @classmethod
    def from_perf_inputs(cls, perfs: Sequence[DesignPerfInput]) -> "PerfInputBatch":
        """Pack scalar perf records into a batch (the generic adapter).

        The design families bypass this on the hot path (their
        ``perf_input_batch`` hooks derive the arrays closed-form), but
        it gives any :class:`DesignPerfInput` producer — including
        plugin designs and the property-test oracle — access to the
        vectorized evaluator.
        """
        perfs = list(perfs)
        max_banks = max((len(p.decoder_banks) for p in perfs), default=1)
        rows = np.zeros((len(perfs), max_banks), dtype=np.int64)
        counts = np.zeros((len(perfs), max_banks), dtype=np.int64)
        for index, perf in enumerate(perfs):
            for slot, bank in enumerate(perf.decoder_banks):
                rows[index, slot] = bank.rows
                counts[index, slot] = bank.count
        column = lambda name, dtype: np.array(  # noqa: E731
            [getattr(p, name) for p in perfs], dtype=dtype
        )
        return cls(
            designs=tuple(p.design for p in perfs),
            layers=tuple(p.layer for p in perfs),
            cycles=column("cycles", np.int64),
            wordline_cols=column("wordline_cols", np.int64),
            bitline_rows=column("bitline_rows", np.int64),
            rows_selected_per_cycle=column("rows_selected_per_cycle", np.int64),
            decoder_rows=rows,
            decoder_counts=counts,
            conv_values_per_cycle=column("conv_values_per_cycle", np.float64),
            live_row_cycles_total=column("live_row_cycles_total", np.float64),
            useful_macs=column("useful_macs", np.int64),
            total_cells_logical=column("total_cells_logical", np.int64),
            broadcast_instances=column("broadcast_instances", np.int64),
            sa_extra_ops_per_value=column("sa_extra_ops_per_value", np.float64),
            crop_values_total=column("crop_values_total", np.int64),
            col_periphery_sets=column("col_periphery_sets", np.int64),
            col_set_width=column("col_set_width", np.int64),
            row_bank_instances=column("row_bank_instances", np.int64),
            has_crop_unit=column("has_crop_unit", bool),
            overlap_adder_cols=column("overlap_adder_cols", np.int64),
        )

    @classmethod
    def concat(cls, parts: Sequence["PerfInputBatch"]) -> "PerfInputBatch":
        """Join batches end to end, jobs in ``parts`` order.

        Decoder banks widen to the widest part; the extra slots are
        ``rows=0, count=0`` padding, which contributes nothing (see the
        class docstring), so every job evaluates exactly as it would in
        its own part.  A single part is returned as-is.
        """
        if len(parts) == 1:
            return parts[0]
        jobs = sum(len(part) for part in parts)
        banks = max(part.decoder_rows.shape[1] for part in parts)
        rows = np.zeros((jobs, banks), dtype=np.int64)
        counts = np.zeros((jobs, banks), dtype=np.int64)
        start = 0
        for part in parts:
            stop = start + len(part)
            width = part.decoder_rows.shape[1]
            rows[start:stop, :width] = part.decoder_rows
            counts[start:stop, :width] = part.decoder_counts
            start = stop
        return cls(
            designs=sum((part.designs for part in parts), ()),
            layers=sum((part.layers for part in parts), ()),
            decoder_rows=rows,
            decoder_counts=counts,
            **{
                name: np.concatenate([getattr(part, name) for part in parts])
                for name in _JOB_COLUMNS
            },
        )


def latency_breakdown_batch(
    batch: PerfInputBatch, tech: TechnologyParams | None = None
) -> dict[str, np.ndarray]:
    """Eq. 3 over the whole batch: component name -> per-job seconds.

    Mirrors :func:`repro.arch.metrics.latency_breakdown` term for term.
    """
    t = tech or default_tech()
    bits = t.bits_input
    cycles = batch.cycles
    phys_cols = batch.wordline_cols * t.phys_cols_per_weight

    wd_cycle = t.t_wd_base + t.t_wd_per_col * phys_cols + t.t_wd_quad * phys_cols**2
    fanned = batch.broadcast_instances > 1
    if fanned.any():
        wd_cycle[fanned] = wd_cycle[fanned] + t.t_broadcast_per_log2 * _exact_log2(
            batch.broadcast_instances[fanned]
        )
    bd_cycle = t.t_bd_base + t.t_bd_per_row * batch.bitline_rows
    max_bank_rows = batch.decoder_rows.max(axis=1)
    dec_cycle = t.t_dec_base + t.t_dec_per_log2_row * _exact_log2(
        np.maximum(max_bank_rows, 2)
    )
    rc_cycle = bits * t.mux_share * t.t_adc
    sa_cycle = bits * (t.num_slices + batch.sa_extra_ops_per_value) * t.t_sa

    return {
        "wordline": cycles * bits * wd_cycle,
        "bitline": cycles * bits * bd_cycle,
        "decoder": cycles * dec_cycle,
        "mux": cycles * t.t_mux,
        "read_circuit": cycles * rc_cycle,
        "shift_adder": cycles * sa_cycle,
    }


def energy_breakdown_batch(
    batch: PerfInputBatch, tech: TechnologyParams | None = None
) -> dict[str, np.ndarray]:
    """Eq. 4 over the whole batch: component name -> per-job joules.

    Mirrors :func:`repro.arch.metrics.energy_breakdown` term for term;
    the decoder-bank sum iterates bank *slots* (a handful) rather than
    jobs, preserving the scalar left-to-right accumulation order.
    """
    t = tech or default_tech()
    cycles = batch.cycles
    phys_cols = batch.wordline_cols * t.phys_cols_per_weight

    e_wd = batch.live_row_cycles_total * (
        t.e_wl_fixed + t.e_wl_per_col * phys_cols + t.e_wl_quad * phys_cols**2
    )
    e_bd = cycles * (
        t.e_bd_per_cell * (batch.total_cells_logical * t.phys_cols_per_weight)
    )
    e_dec_cycle = np.zeros(len(batch), dtype=np.float64)
    for slot in range(batch.decoder_rows.shape[1]):
        e_dec_cycle = e_dec_cycle + batch.decoder_counts[:, slot] * (
            t.e_dec_fixed + t.e_dec_per_row * batch.decoder_rows[:, slot]
        )
    e_dec = cycles * (e_dec_cycle + t.e_cycle_fixed)

    cycle_values = cycles * batch.conv_values_per_cycle
    conversions = cycle_values * t.bits_input * t.phys_cols_per_weight
    e_mux = conversions * t.e_mux
    e_rc = conversions * t.e_adc
    extra_ops = cycle_values * batch.sa_extra_ops_per_value
    e_sa = (conversions + extra_ops) * t.e_sa

    e_overlap = np.where(
        batch.overlap_adder_cols != 0, cycle_values * t.e_overlap_add, 0.0
    )
    e_crop = batch.crop_values_total * t.e_crop

    return {
        "computation": t.e_mac * batch.useful_macs,
        "wordline": e_wd,
        "bitline": e_bd,
        "decoder": e_dec,
        "mux": e_mux,
        "read_circuit": e_rc,
        "shift_adder": e_sa,
        "extra_adder": e_overlap,
        "crop": e_crop,
    }


def area_breakdown_batch(
    batch: PerfInputBatch, tech: TechnologyParams | None = None
) -> dict[str, np.ndarray]:
    """Fig. 9 accounting over the whole batch: name -> per-job m^2.

    Mirrors :func:`repro.arch.metrics.area_breakdown` term for term.
    """
    t = tech or default_tech()
    cells = batch.total_cells_logical * t.phys_cols_per_weight
    a_array = cells * t.cell_area_m2

    total_rows = (batch.decoder_rows * batch.decoder_counts).sum(axis=1)
    a_row = (
        total_rows * t.a_row_per_row
        + batch.row_bank_instances * t.a_row_bank_fixed
    )
    fanned = batch.broadcast_instances > 1
    if fanned.any():
        a_row[fanned] = a_row[fanned] + (
            batch.row_bank_instances[fanned] * t.a_router_per_instance
        )

    set_width_phys = np.maximum(batch.col_set_width, 1) * t.phys_cols_per_weight
    adcs_per_set = np.ceil(set_width_phys / t.mux_share)
    a_mux = batch.col_periphery_sets * set_width_phys * t.a_col_per_col
    a_rc = batch.col_periphery_sets * (adcs_per_set * t.a_adc + t.a_col_set_fixed)
    a_sa = batch.col_periphery_sets * set_width_phys * t.a_sa_per_col

    a_overlap = (
        batch.overlap_adder_cols * t.phys_cols_per_weight * t.a_overlap_adder_per_col
    )
    a_crop = np.where(batch.has_crop_unit, t.a_crop_unit, 0.0)

    return {
        "computation": a_array,
        "decoder": a_row,
        "mux": a_mux,
        "read_circuit": a_rc,
        "shift_adder": a_sa,
        "extra_adder": a_overlap,
        "crop": a_crop,
    }


def evaluate_perf_batch(
    batch: PerfInputBatch, tech: TechnologyParams | None = None
) -> list[DesignMetrics]:
    """Full latency/energy/area evaluation of every job in the batch.

    Returns per-job :class:`DesignMetrics` in batch order, bit-identical
    to evaluating each record through the scalar
    :func:`repro.arch.metrics.evaluate_design`, assembled by
    :func:`_assemble_metrics`.
    """
    tech = tech or default_tech()
    latency = latency_breakdown_batch(batch, tech)
    energy = energy_breakdown_batch(batch, tech)
    area = area_breakdown_batch(batch, tech)

    lat_wl, lat_bl, lat_dec, lat_mux, lat_rc, lat_sa = (
        latency[name].tolist()
        for name in ("wordline", "bitline", "decoder", "mux", "read_circuit",
                     "shift_adder")
    )
    (en_c, en_wl, en_bl, en_dec, en_mux, en_rc, en_sa, en_ea, en_cr) = (
        energy[name].tolist()
        for name in ("computation", "wordline", "bitline", "decoder", "mux",
                     "read_circuit", "shift_adder", "extra_adder", "crop")
    )
    (ar_c, ar_dec, ar_mux, ar_rc, ar_sa, ar_ea, ar_cr) = (
        area[name].tolist()
        for name in ("computation", "decoder", "mux", "read_circuit",
                     "shift_adder", "extra_adder", "crop")
    )
    zero = repeat(0.0)
    return _assemble_metrics(batch.designs, batch.layers, zip(
        batch.cycles.tolist(),
        lat_wl, lat_bl, zero, lat_dec, lat_mux, lat_rc, lat_sa, zero, zero,
        en_wl, en_bl, en_c, en_dec, en_mux, en_rc, en_sa, en_ea, en_cr,
        zero, zero, ar_c, ar_dec, ar_mux, ar_rc, ar_sa, ar_ea, ar_cr,
    ))


def _assemble_metrics(designs, layers, rows) -> list[DesignMetrics]:
    """One :class:`DesignMetrics` per ``(design, layer, row)``.

    A row is the cycle count followed by the 27 breakdown values:
    latency, energy, then area, each in :class:`_Breakdown` field
    order.  Assembly bypasses the frozen-dataclass ``__init__``
    (``object.__new__`` plus a direct ``__dict__`` swap): the values are
    already validated and the per-field ``object.__setattr__`` walk
    would dominate the whole vectorized plane's runtime on a 10k-job
    grid.  The ``__dict__`` keys go in field order, as ``__init__``
    would set them, so a row pickles byte-identical to one the scalar
    evaluator built.
    """
    new = object.__new__
    set_attr = object.__setattr__
    results: list[DesignMetrics] = []
    for design, layer, (cyc,
                        l_wl, l_bl, l_c, l_dec, l_mux, l_rc, l_sa, l_ea, l_cr,
                        e_wl, e_bl, e_c, e_dec, e_mux, e_rc, e_sa, e_ea, e_cr,
                        a_wl, a_bl, a_c, a_dec, a_mux, a_rc, a_sa, a_ea, a_cr,
                        ) in zip(designs, layers, rows):
        lat = new(LatencyBreakdown)
        set_attr(lat, "__dict__", {
            "wordline": l_wl, "bitline": l_bl, "computation": l_c,
            "decoder": l_dec, "mux": l_mux, "read_circuit": l_rc,
            "shift_adder": l_sa, "extra_adder": l_ea, "crop": l_cr,
        })
        en = new(EnergyBreakdown)
        set_attr(en, "__dict__", {
            "wordline": e_wl, "bitline": e_bl, "computation": e_c,
            "decoder": e_dec, "mux": e_mux, "read_circuit": e_rc,
            "shift_adder": e_sa, "extra_adder": e_ea, "crop": e_cr,
        })
        ar = new(AreaBreakdown)
        set_attr(ar, "__dict__", {
            "wordline": a_wl, "bitline": a_bl, "computation": a_c,
            "decoder": a_dec, "mux": a_mux, "read_circuit": a_rc,
            "shift_adder": a_sa, "extra_adder": a_ea, "crop": a_cr,
        })
        metrics = new(DesignMetrics)
        set_attr(metrics, "__dict__", {
            "design": design, "layer": layer,
            "latency": lat, "energy": en, "area": ar, "cycles": cyc,
        })
        results.append(metrics)
    return results


#: A packed row: the cycle count (int64) and the 27 breakdown float64s
#: in :func:`_assemble_metrics` order, 224 bytes.
_PACKED_ROW = struct.Struct("=q27d")
#: A breakdown's nine values, in field order, read as one tuple in C.
_BREAKDOWN_VALUES = attrgetter(*(f.name for f in fields(LatencyBreakdown)))


def pack_metrics(row: DesignMetrics) -> bytes | None:
    """``row``'s numbers as bytes :func:`unpack_metrics` restores exactly.

    The design name and label are not packed: the caller holds them.
    Returns ``None`` for a row bytes cannot restore pickle-for-pickle:
    a subclass, an ``int`` or NumPy breakdown value (a technology
    override given as ``0`` rather than ``0.0`` yields ints), or a
    cycle count outside int64.
    """
    if (
        type(row) is not DesignMetrics
        or type(row.cycles) is not int
        or type(row.latency) is not LatencyBreakdown
        or type(row.energy) is not EnergyBreakdown
        or type(row.area) is not AreaBreakdown
    ):
        return None
    values = (
        *_BREAKDOWN_VALUES(row.latency),
        *_BREAKDOWN_VALUES(row.energy),
        *_BREAKDOWN_VALUES(row.area),
    )
    if any(type(value) is not float for value in values):
        return None
    try:
        return _PACKED_ROW.pack(row.cycles, *values)
    except struct.error:  # a cycle count outside int64
        return None


def unpack_metrics(designs, layers, packed) -> list[DesignMetrics]:
    """Rows from :func:`pack_metrics` bytes, one per ``(design, layer)``."""
    return _assemble_metrics(designs, layers, map(_PACKED_ROW.unpack, packed))
