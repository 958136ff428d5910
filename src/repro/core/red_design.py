"""The RED accelerator design (paper Sec. III-B).

Combines pixel-wise mapping (Eq. 1), the zero-skipping data flow
(Fig. 5c) and, when the kernel is large, the area-efficient fold (Eq. 2).
Three execution paths share one schedule:

* :meth:`REDDesign.run_functional` — fast vectorized execution through the
  SCT slices (per-tap strided scatter), for full-size layers;
* :meth:`REDDesign.run_cycle_accurate` — literal cycle-by-cycle execution
  of the folded schedule (the dataflow the performance model charges),
  for verification on small layers;
* :meth:`REDDesign.run_quantized` — cycle-accurate execution where every
  physical sub-crossbar is a bit-sliced differential ReRAM pipeline.
"""

from __future__ import annotations

import numpy as np

from repro.arch.metrics_batch import PerfInputBatch
from repro.arch.perf_input import DecoderBank, DesignPerfInput
from repro.arch.tech import TechnologyParams
from repro.core.dataflow import ZeroSkippingSchedule, red_cycle_count
from repro.core.fold import FoldedSCT, fold_sct, resolve_fold, resolve_fold_batch
from repro.core.mapping import build_sct
from repro.deconv.analysis import useful_mac_count
from repro.deconv.modes import decompose_modes
from repro.deconv.shapes import DeconvSpec, SpecArrays
from repro.designs.base import DeconvDesign, FunctionalRun
from repro.reram.bitslice import WeightSlicing
from repro.reram.pipeline import CrossbarPipeline


class REDDesign(DeconvDesign):
    """RED: pixel-wise mapped, zero-skipping ReRAM deconvolution."""

    name = "RED"

    def __init__(
        self,
        spec: DeconvSpec,
        tech: TechnologyParams | None = None,
        fold: int | str = "auto",
        max_sub_crossbars: int = 128,
    ) -> None:
        super().__init__(spec, tech)
        self.fold = resolve_fold(spec, fold, max_sub_crossbars)
        self.max_sub_crossbars = max_sub_crossbars
        self.schedule = ZeroSkippingSchedule(spec)
        self._modes = decompose_modes(spec)

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def num_physical_scs(self) -> int:
        """Physical sub-crossbars after folding: ``ceil(KH*KW / fold)``."""
        return -(-self.spec.num_kernel_taps // self.fold)

    @property
    def cycles(self) -> int:
        """Compute rounds for the layer (Fig. 5c + fold)."""
        return red_cycle_count(self.spec, self.fold)

    # ------------------------------------------------------------------
    # Functional simulation (fast path)
    # ------------------------------------------------------------------
    def run_functional(self, x: np.ndarray, w: np.ndarray) -> FunctionalRun:
        """Vectorized execution through the pixel-wise mapping.

        Iterates the SCT tap slices and scatters each sub-crossbar's
        contribution onto its strided output positions — the same
        arithmetic the cycle-accurate path performs round by round.
        """
        self._check_float_operands(x, w)
        spec = self.spec
        sct = build_sct(w.astype(np.float64, copy=False), spec)
        s, p = spec.stride, spec.padding
        oh, ow, m = spec.output_shape
        out = np.zeros((oh, ow, m), dtype=np.float64)
        x64 = x.astype(np.float64, copy=False)
        macs = 0
        for kh in range(spec.kernel_height):
            ys = np.arange(spec.input_height) * s + kh - p
            ymask = (ys >= 0) & (ys < oh)
            if not ymask.any():
                continue
            for kw in range(spec.kernel_width):
                xs = np.arange(spec.input_width) * s + kw - p
                xmask = (xs >= 0) & (xs < ow)
                if not xmask.any():
                    continue
                sub = sct.sub_crossbar(kh, kw)
                patch = x64[ymask][:, xmask, :]
                out[np.ix_(ys[ymask], xs[xmask])] += np.tensordot(
                    patch, sub, axes=([2], [0])
                )
                macs += patch.size * m
        return FunctionalRun(
            output=out,
            cycles=self.cycles,
            counters={
                "sub_crossbars": self.num_physical_scs,
                "fold": self.fold,
                "macs_useful": macs,
            },
        )

    # ------------------------------------------------------------------
    # Functional simulation (cycle-accurate path)
    # ------------------------------------------------------------------
    def run_cycle_accurate(self, x: np.ndarray, w: np.ndarray) -> FunctionalRun:
        """Execute the folded zero-skipping schedule round by round."""
        self._check_float_operands(x, w)
        folded = fold_sct(build_sct(w.astype(np.float64, copy=False), self.spec), self.fold)
        return self._execute_schedule(
            x.astype(np.float64, copy=False), folded, matvec=None
        )

    def run_quantized(self, x_int: np.ndarray, w_int: np.ndarray) -> FunctionalRun:
        """Cycle-accurate execution on per-SC bit-sliced ReRAM pipelines."""
        self._check_int_operands(x_int, w_int)
        folded = fold_sct(build_sct(w_int.astype(np.int64), self.spec), self.fold)
        slicing = WeightSlicing(self.tech.bits_weight, self.tech.bits_per_cell)
        pipelines = [
            CrossbarPipeline(
                folded.data[:, :, n],
                slicing=slicing,
                bits_input=self.tech.bits_input,
            )
            for n in range(folded.num_physical_scs)
        ]

        def matvec(n: int, vector: np.ndarray) -> np.ndarray:
            return pipelines[n].matvec(vector.astype(np.int64)).values

        run = self._execute_schedule(x_int.astype(np.int64), folded, matvec=matvec)
        run.output = run.output.astype(np.int64)
        return run

    def _execute_schedule(
        self,
        x: np.ndarray,
        folded: FoldedSCT,
        matvec,
    ) -> FunctionalRun:
        """Drive the folded SCT through every schedule round.

        ``matvec(n, vector)`` evaluates physical SC ``n``; ``None`` uses
        plain NumPy.  Per round and fold sub-cycle, each physical SC sees
        its Eq. 2 input (live rows for the slot's tap, zeros elsewhere);
        outputs accumulate into the tap's mode output pixel.
        """
        spec = self.spec
        c = spec.in_channels
        oh, ow, m = spec.output_shape
        out = np.zeros((oh, ow, m), dtype=x.dtype)
        kw_count = spec.kernel_width
        # tap index -> (mode output slot later), physical location
        tap_to_phys: dict[int, tuple[int, int]] = {}
        for n, slots in enumerate(folded.tap_slots):
            for f, tap in enumerate(slots):
                if tap is not None:
                    tap_to_phys[tap] = (n, f)

        sc_matvecs = 0
        live_rows = 0
        buffer_reads = 0
        rounds = 0
        for slot in self.schedule.cycles():
            rounds += self.fold
            buffer_reads += len(slot.distinct_inputs)
            # Output pixel per mode index for this block.
            mode_target = {mode: (oy, ox) for oy, ox, mode in slot.outputs}
            tap_mode = {}
            for mode_index, mode in enumerate(self._modes):
                for kh, kw in mode.taps:
                    tap_mode[kh * kw_count + kw] = mode_index
            for f in range(self.fold):
                for n, slots in enumerate(folded.tap_slots):
                    tap = slots[f]
                    if tap is None:
                        continue
                    kh, kw = divmod(tap, kw_count)
                    pixel = slot.assignments.get((kh, kw))
                    if pixel is None:
                        continue
                    mode_index = tap_mode[tap]
                    target = mode_target.get(mode_index)
                    if target is None:
                        continue
                    vector = np.zeros(folded.rows_per_sc, dtype=x.dtype)
                    vector[f * c : (f + 1) * c] = x[pixel[0], pixel[1], :]
                    if matvec is None:
                        contribution = vector @ folded.data[:, :, n]
                    else:
                        contribution = matvec(n, vector)
                    oy, ox = target
                    out[oy, ox, :] += contribution
                    sc_matvecs += 1
                    live_rows += c
        return FunctionalRun(
            output=out,
            cycles=rounds,
            counters={
                "sub_crossbars": folded.num_physical_scs,
                "fold": self.fold,
                "sc_matvecs": sc_matvecs,
                "live_rows": live_rows,
                "buffer_reads": buffer_reads,
            },
        )

    # ------------------------------------------------------------------
    # Performance model
    # ------------------------------------------------------------------
    def perf_input(self, layer_name: str = "") -> DesignPerfInput:
        """Counts for Fig. 5: folded SCT geometry, zero-skipping rounds."""
        spec = self.spec
        nonempty_modes = sum(1 for mode in self._modes if mode.taps)
        sc_count = self.num_physical_scs
        useful = useful_mac_count(spec)
        # The integrate-and-fire circuit accumulates a folded SC's charge
        # over its `fold` interleaved cycles before one conversion, so the
        # per-cycle conversion rate divides by fold.
        conv_per_cycle = max(nonempty_modes, 1) * spec.out_channels / self.fold
        return DesignPerfInput(
            design=self.name,
            layer=layer_name,
            spec=spec,
            cycles=self.cycles,
            wordline_cols=spec.out_channels,
            # Mode groups are segments of the same physical column stack
            # (the "vertical sum-up" wiring); worst-case bitline settle is
            # set by the full KH*KW*C stack, matching the zero-padding
            # design's column height — the paper's "similar array latency".
            bitline_rows=spec.num_kernel_taps * spec.in_channels,
            rows_selected_per_cycle=sc_count * self.fold * spec.in_channels,
            decoder_banks=(
                DecoderBank(rows=self.fold * spec.in_channels, count=sc_count),
            ),
            conv_values_per_cycle=conv_per_cycle,
            live_row_cycles_total=useful / spec.out_channels,
            useful_macs=useful,
            total_cells_logical=spec.num_weights,
            broadcast_instances=sc_count,
            sa_extra_ops_per_value=(self.fold - 1) / self.fold,
            col_periphery_sets=max(nonempty_modes, 1),
            col_set_width=spec.out_channels,
            row_bank_instances=sc_count,
        )

    @classmethod
    def perf_input_batch(
        cls,
        arrays: SpecArrays,
        folds,
        tech=None,
        layer_names=None,
        max_sub_crossbars: int = 128,
    ) -> PerfInputBatch:
        """Closed-form :meth:`perf_input` for many (layer, fold) jobs.

        ``arrays`` packs the jobs' specs; ``folds`` is a per-job
        sequence of ``'auto'`` or ints, resolved through the same Eq. 2
        rule as the constructor
        (:func:`~repro.core.fold.resolve_fold_batch`).  The nonempty
        mode count uses the closed form ``min(KH, s) * min(KW, s)``
        (:func:`~repro.deconv.modes.num_nonempty_modes`) instead of the
        full mode decomposition; everything else is the scalar formula
        applied elementwise.  ``tech`` is accepted for hook uniformity.
        """
        jobs = len(arrays)
        taps = arrays.num_kernel_taps
        fold = resolve_fold_batch(taps, folds, max_sub_crossbars)
        sc_count = -(-taps // fold)
        blocks_y = -(-arrays.output_height // arrays.stride)
        blocks_x = -(-arrays.output_width // arrays.stride)
        nonempty_modes = np.minimum(arrays.kernel_height, arrays.stride) * np.minimum(
            arrays.kernel_width, arrays.stride
        )
        useful = arrays.useful_macs
        return PerfInputBatch(
            designs=(cls.name,) * jobs,
            layers=tuple(layer_names) if layer_names is not None else ("",) * jobs,
            cycles=fold * blocks_y * blocks_x,
            wordline_cols=arrays.out_channels,
            bitline_rows=taps * arrays.in_channels,
            rows_selected_per_cycle=sc_count * fold * arrays.in_channels,
            decoder_rows=(fold * arrays.in_channels)[:, None],
            decoder_counts=sc_count[:, None],
            conv_values_per_cycle=(
                np.maximum(nonempty_modes, 1) * arrays.out_channels / fold
            ),
            live_row_cycles_total=useful / arrays.out_channels,
            useful_macs=useful,
            total_cells_logical=arrays.num_weights,
            broadcast_instances=sc_count,
            sa_extra_ops_per_value=(fold - 1) / fold,
            crop_values_total=np.zeros(jobs, dtype=np.int64),
            col_periphery_sets=np.maximum(nonempty_modes, 1),
            col_set_width=arrays.out_channels,
            row_bank_instances=sc_count,
            has_crop_unit=np.zeros(jobs, dtype=bool),
            overlap_adder_cols=np.zeros(jobs, dtype=np.int64),
        )
