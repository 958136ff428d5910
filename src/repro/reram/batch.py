"""Vectorized Monte-Carlo fidelity sampling over (seed, time) grids.

The scalar modules in this package model one non-ideality at a time:
:class:`~repro.reram.noise.NoiseModel` perturbs one array,
:class:`~repro.reram.drift.DriftModel` drifts it to one time,
:func:`~repro.reram.adc.quantize_readout` quantizes one readout.  A
sensitivity study wants the cross product — many seeds, many retention
times, per design — and looping the scalar path redraws the programming
variation and rebuilds models for every point.  This module draws the
whole grid struct-of-arrays:

* :class:`FidelityProfile` — the representative crossbar a design
  exposes to the fidelity plane (shape, device, ADC), derived from the
  design's registered hook or from its perf-model geometry.
* :func:`fidelity_point` — the scalar oracle: one ``(seed, time)``
  sample composed *only* from the scalar module APIs.
* :func:`sample_fidelity_grid` — the batched sampler: programming
  variation and fault patterns drawn once per seed, drift applied once
  per unique time across the whole seed stack, readout/ADC/metrics
  vectorized over the grid.

Bit-reproducibility contract
----------------------------
Batched results are **bit-identical** to the scalar oracle and
**invariant to batch order and sharding** (property-tested in
``tests/reram/test_batch.py``).  Both hold because every random draw is
keyed by *values*, never by batch position: programming variation and
stuck faults come from ``SeedSequence(seed, spawn_key=(domain, 0))``
(the :mod:`repro.reram.noise` seeding contract), and read noise is
keyed by the bit pattern of the time value itself
(:func:`read_noise_stream`).  The arithmetic is elementwise apart from
the row-sum and per-point metric reductions, which reduce the same
contiguous data in the same order in both paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.eval.parallel import FidelityStats
from repro.reram.adc import ADCParams, adc_for_crossbar, quantize_readout
from repro.reram.device import (
    ReRAMDeviceParams,
    conductance_grid,
    digits_to_conductance,
)
from repro.reram.drift import DriftModel
from repro.reram.noise import NoiseModel
from repro.utils.validation import check_positive_float, check_positive_int

#: Root entropy of the fixed probe-digit pattern.  Deliberately not part
#: of the Monte-Carlo seed axis: the probe weights are a property of the
#: profile, the non-idealities are the random variables.
_DIGITS_SEED = 0xF1DE17


@dataclass(frozen=True)
class FidelityProfile:
    """The representative crossbar one design exposes to the plane.

    Attributes:
        design: canonical design name.
        rows: wordlines of the probe array.
        cols: bitlines of the probe array.
        device: cell parameters (levels, conductance window, voltage).
        adc: read-circuit quantizer; ``None`` models a lossless readout.
    """

    design: str
    rows: int
    cols: int
    device: ReRAMDeviceParams
    adc: ADCParams | None = None

    def __post_init__(self) -> None:
        check_positive_int(self.rows, "rows")
        check_positive_int(self.cols, "cols")


@lru_cache(maxsize=256)
def profile_digits(profile: FidelityProfile) -> np.ndarray:
    """The profile's fixed probe digit matrix ``(rows, cols)``.

    A deterministic function of the probe shape and level count only —
    every seed and time of a grid reads the same programmed weights, so
    the error metrics isolate the non-idealities.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(
            _DIGITS_SEED,
            spawn_key=(profile.rows, profile.cols, profile.device.num_levels),
        )
    )
    digits = rng.integers(
        0, profile.device.num_levels, size=(profile.rows, profile.cols)
    )
    digits.setflags(write=False)
    return digits


def derived_fidelity_profile(
    name: str,
    spec,
    tech=None,
    *,
    adc_bits: int | None = None,
    max_rows: int = 128,
    max_cols: int = 128,
) -> FidelityProfile:
    """The default profile derivation from a design's perf geometry.

    Builds the design, reads its
    :class:`~repro.arch.perf_input.DesignPerfInput` and probes a
    ``min(bitline_rows, max_rows) x min(wordline_cols, max_cols)``
    array on a device with the technology's ``bits_per_cell``; the ADC
    is sized for that array (``adc_bits=None`` -> lossless).  This is
    what makes every registered design appear in the fidelity frontier
    automatically — a design only needs a registry hook when its
    representative array is *not* what its perf model implies.
    """
    from repro.api.registry import build_design, get_design
    from repro.arch.tech import default_tech

    entry = get_design(name)
    if tech is None:
        tech = default_tech()
    check_positive_int(max_rows, "max_rows")
    check_positive_int(max_cols, "max_cols")
    perf = build_design(entry.name, spec, tech).perf_input()
    rows = min(int(perf.bitline_rows), max_rows)
    cols = min(int(perf.wordline_cols), max_cols)
    device = ReRAMDeviceParams(bits_per_cell=tech.bits_per_cell)
    adc = adc_for_crossbar(rows, device.num_levels, adc_bits)
    return FidelityProfile(
        design=entry.name, rows=rows, cols=cols, device=device, adc=adc
    )


def profile_for_design(
    name: str,
    spec,
    tech=None,
    *,
    adc_bits: int | None = None,
    max_rows: int = 128,
    max_cols: int = 128,
) -> FidelityProfile:
    """The fidelity profile for one design: registry hook or derivation.

    Designs registered with a ``fidelity_profile`` hook
    (:class:`~repro.api.registry.DesignEntry`) control their probe array
    explicitly; everything else falls back to
    :func:`derived_fidelity_profile`.
    """
    from repro.api.registry import get_design

    entry = get_design(name)
    if entry.fidelity_profile is not None:
        return entry.fidelity_profile(
            spec, tech, adc_bits=adc_bits, max_rows=max_rows, max_cols=max_cols
        )
    return derived_fidelity_profile(
        entry.name, spec, tech,
        adc_bits=adc_bits, max_rows=max_rows, max_cols=max_cols,
    )


def read_noise_stream(time_s: float) -> int:
    """The read-noise stream id for a retention time.

    The packed IEEE-754 bits of the (positive) time value — a pure
    value key, so a grid point draws identical read noise no matter
    where it sits in a batch or which shard it lands in.
    """
    return int(np.float64(time_s).view(np.uint64))


def _reconstructed_sums(
    currents: np.ndarray, rows: int, device: ReRAMDeviceParams, adc: ADCParams | None
) -> np.ndarray:
    """ADC-reconstructed integer column sums from column currents.

    The affine readback the crossbar's integrate-and-fire circuit
    performs (:meth:`~repro.reram.crossbar.CrossbarArray.digit_sums`)
    followed by the ADC transfer function — elementwise, so the scalar
    and batched paths share it verbatim.
    """
    grid = conductance_grid(device)
    delta_g = grid[1] - grid[0] if device.num_levels > 1 else 1.0
    base = device.read_voltage * device.g_min * rows
    sums = (currents - base) / (device.read_voltage * delta_g)
    return quantize_readout(np.rint(sums).astype(np.int64), adc)


def _point_stats(
    profile: FidelityProfile,
    layer: str,
    seed: int,
    time_s: float,
    recon: np.ndarray,
    exact: np.ndarray,
    stuck_fraction: float,
) -> FidelityStats:
    """Metrics of one reconstructed readout vs the exact column sums."""
    err = recon - exact
    denom = float(np.abs(exact).mean()) or 1.0
    return FidelityStats(
        design=profile.design,
        layer=layer,
        seed=int(seed),
        time_s=float(time_s),
        rms_error=float(np.sqrt(np.mean(err**2))) / denom,
        mean_abs_error=float(np.abs(err).mean()) / denom,
        max_abs_error=float(np.abs(err).max()) / denom,
        stuck_fraction=stuck_fraction,
    )


def fidelity_point(
    profile: FidelityProfile,
    seed: int,
    time_s: float,
    *,
    nu: float = 0.02,
    programming_sigma: float = 0.05,
    read_noise_sigma: float = 0.0,
    stuck_at_rate: float = 0.0,
    layer: str = "",
) -> FidelityStats:
    """The scalar oracle: one ``(seed, time)`` fidelity sample.

    Composed entirely from the scalar module APIs — programming through
    :meth:`NoiseModel.apply_programming` (explicit streams), drift
    through :meth:`DriftModel.conductance_at`, read noise through
    :meth:`NoiseModel.apply_read` keyed by :func:`read_noise_stream`,
    quantization through :func:`quantize_readout`.  The batched sampler
    is property-tested bit-identical against this function.
    """
    device = profile.device
    digits = profile_digits(profile)
    model = NoiseModel(
        programming_sigma=programming_sigma,
        read_noise_sigma=read_noise_sigma,
        stuck_at_rate=stuck_at_rate,
        seed=seed,
    )
    ideal = digits_to_conductance(digits, device)
    programmed = model.apply_programming(ideal, device, stream=0, stuck_stream=0)
    mask, _ = model.stuck_faults(digits.shape, device, stream=0)
    drifted = DriftModel(nu=nu).conductance_at(programmed, time_s, device)
    currents = device.read_voltage * drifted.sum(axis=0)
    currents = model.apply_read(currents, stream=read_noise_stream(time_s))
    recon = _reconstructed_sums(currents, profile.rows, device, profile.adc)
    exact = digits.sum(axis=0)
    return _point_stats(
        profile, layer, seed, time_s, recon, exact, float(mask.mean())
    )


def sample_fidelity_grid(
    profile: FidelityProfile,
    points: Sequence[tuple[int, float]],
    *,
    nu: float = 0.02,
    programming_sigma: float = 0.05,
    read_noise_sigma: float = 0.0,
    stuck_at_rate: float = 0.0,
    layer: str = "",
) -> list[FidelityStats]:
    """Draw a whole ``(seed, time)`` grid in one struct-of-arrays pass.

    Args:
        profile: the probe array (see :func:`profile_for_design`).
        points: ``(seed, time_s)`` pairs; duplicates allowed (each
            occurrence returns the identical stats object content).
        nu: drift exponent.
        programming_sigma / read_noise_sigma / stuck_at_rate: the
            :class:`NoiseModel` knobs, shared by every point.
        layer: label stamped on every returned stats record.

    Returns:
        One :class:`FidelityStats` per point, in point order —
        bit-identical to ``[fidelity_point(profile, s, t, ...) for
        (s, t) in points]`` and therefore invariant to the order and
        sharding of ``points``.

    The work is factored by value: programming variation and the fault
    pattern are drawn once per *unique seed* (the scalar path redraws
    them for every time), drift is applied once per *unique time* over
    the whole ``(seeds, rows, cols)`` stack, and the readback, ADC and
    error metrics run vectorized over the full grid.
    """
    points = [(seed, time_s) for seed, time_s in points]
    if not points:
        return []
    device = profile.device
    digits = profile_digits(profile)
    rows, cols = digits.shape
    ideal = digits_to_conductance(digits, device)
    exact = digits.sum(axis=0)

    seed_slots: dict[int, int] = {}
    time_slots: dict[float, int] = {}
    for seed, time_s in points:
        seed_slots.setdefault(seed, len(seed_slots))
        time_slots.setdefault(time_s, len(time_slots))
    for time_s in time_slots:
        check_positive_float(time_s, "t")

    # Programming + faults: one draw per unique seed (value-keyed).
    num_seeds = len(seed_slots)
    models: list[NoiseModel] = [None] * num_seeds  # type: ignore[list-item]
    programmed = np.empty((num_seeds, rows, cols), dtype=np.float64)
    stuck_fractions: list[float] = [0.0] * num_seeds
    for seed, slot in seed_slots.items():
        model = NoiseModel(
            programming_sigma=programming_sigma,
            read_noise_sigma=read_noise_sigma,
            stuck_at_rate=stuck_at_rate,
            seed=seed,
        )
        models[slot] = model
        programmed[slot] = model.apply_programming(
            ideal, device, stream=0, stuck_stream=0
        )
        mask, _ = model.stuck_faults(digits.shape, device, stream=0)
        stuck_fractions[slot] = float(mask.mean())

    # Drift + readback: one pass per unique time over the seed stack,
    # drifted in place in one buffer with the scalar path's operations
    # in its order: clip(g_min + (programmed - g_min) * factor).
    drift = DriftModel(nu=nu)
    g_min, g_max = device.g_min, device.g_max
    drifted = np.empty_like(programmed)
    currents = np.empty((len(time_slots), num_seeds, cols), dtype=np.float64)
    for time_s, time_slot in time_slots.items():
        if time_s <= drift.t0:
            read = programmed
        else:
            np.subtract(programmed, g_min, out=drifted)
            drifted *= (time_s / drift.t0) ** (-drift.nu)
            drifted += g_min
            np.clip(drifted, g_min, g_max, out=drifted)
            read = drifted
        currents[time_slot] = device.read_voltage * read.sum(axis=1)
    if read_noise_sigma > 0.0:
        # Same generator and draw as the scalar path: keyed by the
        # (seed, time-bits) values, one row at a time so the per-call
        # RMS matches apply_read exactly.
        for time_s, time_slot in time_slots.items():
            stream = read_noise_stream(time_s)
            for slot in range(num_seeds):
                currents[time_slot, slot] = models[slot].apply_read(
                    currents[time_slot, slot], stream=stream
                )

    # ADC + metrics: vectorized over the whole (time, seed, col) grid.
    recon = _reconstructed_sums(currents, rows, device, profile.adc)
    err = recon - exact
    denom = float(np.abs(exact).mean()) or 1.0
    rms = np.sqrt(np.mean(err**2, axis=-1)) / denom
    mean_abs = np.mean(np.abs(err), axis=-1) / denom
    max_abs = np.abs(err).max(axis=-1) / denom
    return [
        FidelityStats(
            design=profile.design,
            layer=layer,
            seed=int(seed),
            time_s=float(time_s),
            rms_error=float(rms[time_slots[time_s], seed_slots[seed]]),
            mean_abs_error=float(mean_abs[time_slots[time_s], seed_slots[seed]]),
            max_abs_error=float(max_abs[time_slots[time_s], seed_slots[seed]]),
            stuck_fraction=stuck_fractions[seed_slots[seed]],
        )
        for seed, time_s in points
    ]
