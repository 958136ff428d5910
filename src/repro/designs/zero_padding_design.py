"""The zero-padding baseline design (paper Fig. 3a).

Kernel mapping is the standard convolutional one: each of the ``M`` filters
flattens (rotated 180 degrees, ``(kh, kw, c)`` order) into one column of a
``KH*KW*C x M`` crossbar.  Each cycle feeds one im2col window of the
zero-inserted input map and produces one output pixel across all ``M``
feature maps, so a layer takes ``OH*OW`` cycles — with up to 99.8% of the
fed operands being inserted zeros (Fig. 4).  This is the mapping ReGAN
uses for deconvolution and the normalization baseline of every result in
the paper.
"""

from __future__ import annotations

import numpy as np

from repro.arch.metrics_batch import PerfInputBatch
from repro.arch.perf_input import DecoderBank, DesignPerfInput
from repro.deconv.analysis import useful_mac_count
from repro.deconv.reference import rotate_kernel_180
from repro.deconv.shapes import SpecArrays
from repro.deconv.zero_padding import padded_input_vectors, zero_insert_input
from repro.designs.base import DeconvDesign, FunctionalRun
from repro.reram.bitslice import WeightSlicing
from repro.reram.pipeline import CrossbarPipeline


def _kernel_matrix(w: np.ndarray) -> np.ndarray:
    """Rotate and flatten the kernel to the ``(KH*KW*C, M)`` crossbar matrix.

    Row ordering is ``(kh, kw, c)`` to match
    :func:`repro.deconv.zero_padding.padded_input_vectors`.
    """
    rotated = rotate_kernel_180(w)
    kh, kw, c, m = rotated.shape
    return rotated.reshape(kh * kw * c, m)


class ZeroPaddingDesign(DeconvDesign):
    """Conventional ReRAM deconvolution via zero-insertion (Algorithm 1)."""

    name = "zero-padding"

    # ------------------------------------------------------------------
    # Functional simulation
    # ------------------------------------------------------------------
    def run_functional(self, x: np.ndarray, w: np.ndarray) -> FunctionalRun:
        """One crossbar VMM per output pixel over the padded input.

        Windows are processed one output row at a time so FCN-scale maps
        (568x568 outputs with 5376-wide windows) stay within memory; the
        per-cycle semantics are unchanged.
        """
        self._check_float_operands(x, w)
        spec = self.spec
        padded = zero_insert_input(x.astype(np.float64, copy=False), spec)
        matrix = _kernel_matrix(w)
        kh, kw = spec.kernel_height, spec.kernel_width
        oh, ow, m = spec.output_shape
        output = np.empty((oh, ow, m), dtype=np.float64)
        nonzero = 0
        windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(0, 1))
        for oy in range(oh):
            # (OW, C, KH, KW) -> (OW, KH*KW*C) rows in (kh, kw, c) order.
            row = windows[oy].transpose(0, 2, 3, 1).reshape(ow, kh * kw * spec.in_channels)
            output[oy] = row @ matrix
            nonzero += int(np.count_nonzero(row))
        cycles = oh * ow
        elements = cycles * kh * kw * spec.in_channels
        return FunctionalRun(
            output=output,
            cycles=cycles,
            counters={
                "input_vectors": cycles,
                "input_elements": elements,
                "nonzero_input_elements": nonzero,
                "macs_scheduled": elements * spec.out_channels,
                "macs_useful": nonzero * spec.out_channels,
            },
        )

    def run_quantized(self, x_int: np.ndarray, w_int: np.ndarray) -> FunctionalRun:
        """Bit-accurate path: one CrossbarPipeline holding the full mapping."""
        self._check_int_operands(x_int, w_int)
        spec = self.spec
        slicing = WeightSlicing(self.tech.bits_weight, self.tech.bits_per_cell)
        pipeline = CrossbarPipeline(
            _kernel_matrix(w_int.astype(np.int64)),
            slicing=slicing,
            bits_input=self.tech.bits_input,
        )
        vectors = padded_input_vectors(x_int.astype(np.int64), spec).astype(np.int64)
        result = pipeline.matmul(vectors)
        output = result.values.reshape(
            spec.output_height, spec.output_width, spec.out_channels
        )
        return FunctionalRun(
            output=output,
            cycles=vectors.shape[0],
            counters={
                "input_vectors": vectors.shape[0],
                "adc_conversions": result.activity.adc_conversions,
                "input_pulses": result.activity.input_pulses,
                "shift_add_ops": result.activity.shift_add_ops,
            },
        )

    # ------------------------------------------------------------------
    # Performance model
    # ------------------------------------------------------------------
    def perf_input(self, layer_name: str = "") -> DesignPerfInput:
        """Counts for Fig. 3a: ``KH*KW*C x M`` crossbar, ``OH*OW`` cycles."""
        spec = self.spec
        rows = spec.num_kernel_taps * spec.in_channels
        useful = useful_mac_count(spec)
        return DesignPerfInput(
            design=self.name,
            layer=layer_name,
            spec=spec,
            cycles=spec.num_output_pixels,
            wordline_cols=spec.out_channels,
            bitline_rows=rows,
            rows_selected_per_cycle=rows,
            decoder_banks=(DecoderBank(rows=rows, count=1),),
            conv_values_per_cycle=spec.out_channels,
            live_row_cycles_total=useful / spec.out_channels,
            useful_macs=useful,
            total_cells_logical=spec.num_weights,
            col_periphery_sets=1,
            col_set_width=spec.out_channels,
            row_bank_instances=1,
        )

    @classmethod
    def perf_input_batch(
        cls, arrays: SpecArrays, folds=None, tech=None, layer_names=None
    ) -> PerfInputBatch:
        """Closed-form :meth:`perf_input` for many layers at once.

        Same counts as the scalar method, derived straight from the
        packed spec arrays — no per-job design objects.  ``folds`` and
        ``tech`` are accepted for hook-signature uniformity; the
        zero-padding geometry depends on neither.
        """
        jobs = len(arrays)
        rows = arrays.num_kernel_taps * arrays.in_channels
        useful = arrays.useful_macs
        ones = np.ones(jobs, dtype=np.int64)
        return PerfInputBatch(
            designs=(cls.name,) * jobs,
            layers=tuple(layer_names) if layer_names is not None else ("",) * jobs,
            cycles=arrays.num_output_pixels,
            wordline_cols=arrays.out_channels,
            bitline_rows=rows,
            rows_selected_per_cycle=rows,
            decoder_rows=rows[:, None],
            decoder_counts=ones[:, None],
            conv_values_per_cycle=arrays.out_channels.astype(np.float64),
            live_row_cycles_total=useful / arrays.out_channels,
            useful_macs=useful,
            total_cells_logical=arrays.num_weights,
            broadcast_instances=ones,
            sa_extra_ops_per_value=np.zeros(jobs, dtype=np.float64),
            crop_values_total=np.zeros(jobs, dtype=np.int64),
            col_periphery_sets=ones,
            col_set_width=arrays.out_channels,
            row_bank_instances=ones,
            has_crop_unit=np.zeros(jobs, dtype=bool),
            overlap_adder_cols=np.zeros(jobs, dtype=np.int64),
        )
