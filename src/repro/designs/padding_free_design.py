"""The padding-free baseline design (paper Fig. 3b).

The kernel maps onto a ``C x (KH*KW*M)`` crossbar: one cycle per *input*
pixel multiplies its ``C``-channel vector against every kernel tap at once,
producing a ``KH*KW*M``-wide intermediate vector.  Dedicated periphery then
overlap-adds the per-pixel patches at stride offsets and crops the borders
(Algorithm 2 steps c/d).  Cycle count drops to ``IH*IW``, but:

* wordlines span ``KH*KW*M`` physical columns — driving power grows
  quadratically with that width (Sec. III-A), and
* the adder + crop circuits are extra area and energy the other designs
  do not pay.

This is the FCN-Engine-style approach the paper evaluates on ReRAM.
"""

from __future__ import annotations

import numpy as np

from repro.arch.metrics_batch import PerfInputBatch
from repro.arch.perf_input import DecoderBank, DesignPerfInput
from repro.deconv.analysis import useful_mac_count
from repro.deconv.padding_free import crop_to_output, full_overlap_shape, overlap_add
from repro.deconv.shapes import SpecArrays
from repro.designs.base import DeconvDesign, FunctionalRun
from repro.reram.bitslice import WeightSlicing
from repro.reram.pipeline import CrossbarPipeline


def _kernel_matrix(w: np.ndarray) -> np.ndarray:
    """Flatten the kernel to the ``(C, KH*KW*M)`` padding-free matrix.

    Column ordering is ``(kh, kw, m)``: tap-major, matching how the
    overlap-add stage consumes the crossbar output vector.
    """
    kh, kw, c, m = w.shape
    return w.transpose(2, 0, 1, 3).reshape(c, kh * kw * m)


class PaddingFreeDesign(DeconvDesign):
    """ReRAM deconvolution without zero insertion (Algorithm 2)."""

    name = "padding-free"

    # ------------------------------------------------------------------
    # Functional simulation
    # ------------------------------------------------------------------
    def run_functional(self, x: np.ndarray, w: np.ndarray) -> FunctionalRun:
        """One crossbar VMM per input pixel, then overlap-add and crop."""
        self._check_float_operands(x, w)
        spec = self.spec
        matrix = _kernel_matrix(w.astype(np.float64, copy=False))
        ih, iw, c = spec.input_shape
        vectors = x.reshape(ih * iw, c).astype(np.float64)
        intermediate = vectors @ matrix  # (IH*IW, KH*KW*M)
        products = intermediate.reshape(
            ih, iw, spec.kernel_height, spec.kernel_width, spec.out_channels
        )
        full = overlap_add(products, spec)
        output = crop_to_output(full, spec)
        fh, fw = full_overlap_shape(spec)
        return FunctionalRun(
            output=output,
            cycles=ih * iw,
            counters={
                "input_vectors": ih * iw,
                "intermediate_values": int(intermediate.size),
                "overlap_add_values": int(intermediate.size),
                "cropped_values": (fh * fw - spec.num_output_pixels)
                * spec.out_channels,
                "macs_scheduled": int(vectors.size) * matrix.shape[1],
            },
        )

    def run_quantized(self, x_int: np.ndarray, w_int: np.ndarray) -> FunctionalRun:
        """Bit-accurate path through one wide CrossbarPipeline."""
        self._check_int_operands(x_int, w_int)
        spec = self.spec
        slicing = WeightSlicing(self.tech.bits_weight, self.tech.bits_per_cell)
        pipeline = CrossbarPipeline(
            _kernel_matrix(w_int.astype(np.int64)),
            slicing=slicing,
            bits_input=self.tech.bits_input,
        )
        ih, iw, c = spec.input_shape
        vectors = x_int.reshape(ih * iw, c).astype(np.int64)
        result = pipeline.matmul(vectors)
        products = result.values.reshape(
            ih, iw, spec.kernel_height, spec.kernel_width, spec.out_channels
        )
        full = overlap_add(products, spec)
        output = crop_to_output(full, spec).astype(np.int64)
        return FunctionalRun(
            output=output,
            cycles=ih * iw,
            counters={
                "input_vectors": ih * iw,
                "adc_conversions": result.activity.adc_conversions,
                "input_pulses": result.activity.input_pulses,
                "shift_add_ops": result.activity.shift_add_ops,
            },
        )

    # ------------------------------------------------------------------
    # Performance model
    # ------------------------------------------------------------------
    def perf_input(self, layer_name: str = "") -> DesignPerfInput:
        """Counts for Fig. 3b: ``C x KH*KW*M`` crossbar, ``IH*IW`` cycles."""
        spec = self.spec
        wide_cols = spec.num_kernel_taps * spec.out_channels
        fh, fw = full_overlap_shape(spec)
        crop_values = (fh * fw - spec.num_output_pixels) * spec.out_channels
        return DesignPerfInput(
            design=self.name,
            layer=layer_name,
            spec=spec,
            cycles=spec.num_input_pixels,
            wordline_cols=wide_cols,
            bitline_rows=spec.in_channels,
            rows_selected_per_cycle=spec.in_channels,
            decoder_banks=(DecoderBank(rows=spec.in_channels, count=1),),
            conv_values_per_cycle=wide_cols,
            live_row_cycles_total=spec.in_channels * spec.num_input_pixels,
            useful_macs=useful_mac_count(spec),
            total_cells_logical=spec.num_weights,
            # Overlap-add read-modify-writes serialize over the kernel
            # taps (a bank of 8 accumulators), on top of the baseline one
            # add per produced value.
            sa_extra_ops_per_value=1.0 + spec.num_kernel_taps / 8.0,
            crop_values_total=max(crop_values, 0),
            col_periphery_sets=1,
            col_set_width=wide_cols,
            row_bank_instances=1,
            has_crop_unit=True,
            overlap_adder_cols=wide_cols,
        )

    @classmethod
    def perf_input_batch(
        cls, arrays: SpecArrays, folds=None, tech=None, layer_names=None
    ) -> PerfInputBatch:
        """Closed-form :meth:`perf_input` for many layers at once.

        Same counts as the scalar method (including the uncropped
        overlap canvas ``(I-1)s + K``), derived from the packed spec
        arrays.  ``folds``/``tech`` are accepted for hook uniformity.
        """
        jobs = len(arrays)
        wide_cols = arrays.num_kernel_taps * arrays.out_channels
        full_h = (arrays.input_height - 1) * arrays.stride + arrays.kernel_height
        full_w = (arrays.input_width - 1) * arrays.stride + arrays.kernel_width
        crop_values = (full_h * full_w - arrays.num_output_pixels) * arrays.out_channels
        ones = np.ones(jobs, dtype=np.int64)
        return PerfInputBatch(
            designs=(cls.name,) * jobs,
            layers=tuple(layer_names) if layer_names is not None else ("",) * jobs,
            cycles=arrays.num_input_pixels,
            wordline_cols=wide_cols,
            bitline_rows=arrays.in_channels,
            rows_selected_per_cycle=arrays.in_channels,
            decoder_rows=arrays.in_channels[:, None],
            decoder_counts=ones[:, None],
            conv_values_per_cycle=wide_cols.astype(np.float64),
            live_row_cycles_total=(
                arrays.in_channels * arrays.num_input_pixels
            ).astype(np.float64),
            useful_macs=arrays.useful_macs,
            total_cells_logical=arrays.num_weights,
            broadcast_instances=ones,
            sa_extra_ops_per_value=1.0 + arrays.num_kernel_taps / 8.0,
            crop_values_total=np.maximum(crop_values, 0),
            col_periphery_sets=ones,
            col_set_width=wide_cols,
            row_bank_instances=ones,
            has_crop_unit=np.ones(jobs, dtype=bool),
            overlap_adder_cols=wide_cols,
        )
