"""Deconvolution (transposed convolution) algebra.

This package implements the computation the paper accelerates:

* :mod:`repro.deconv.shapes` — shape algebra for stride / padding /
  output-padding and the zero-inserted ("padded") geometry.
* :mod:`repro.deconv.reference` — gold-standard scatter implementation plus
  dense convolution helpers.
* :mod:`repro.deconv.zero_padding` — the paper's Algorithm 1.
* :mod:`repro.deconv.padding_free` — the paper's Algorithm 2
  (rotate / MAC / overlap-add / crop).
* :mod:`repro.deconv.modes` — the stride^2 computation-mode decomposition of
  Fig. 6 that pixel-wise mapping exploits.
* :mod:`repro.deconv.analysis` — zero-redundancy analytics behind Fig. 4.

Tensor conventions follow the paper: activations are ``(H, W, C)`` and
kernels are ``(KH, KW, C, M)``.
"""

from repro.deconv.analysis import (
    padded_zero_fraction,
    redundancy_vs_stride,
    useful_mac_count,
)
from repro.deconv.modes import (
    ComputationMode,
    decompose_modes,
    mode_of_tap,
)
from repro.deconv.padding_free import (
    overlap_add,
)
from repro.deconv.reference import (
    conv2d_valid,
    conv_transpose2d,
    rotate_kernel_180,
)
from repro.deconv.shapes import DeconvSpec, PaddedGeometry
from repro.deconv.zero_padding import (
    zero_insert_input,
    zero_padding_deconv,
)

__all__ = [
    "DeconvSpec",
    "PaddedGeometry",
    "conv2d_valid",
    "conv_transpose2d",
    "rotate_kernel_180",
    "zero_insert_input",
    "zero_padding_deconv",
    "overlap_add",
    "ComputationMode",
    "decompose_modes",
    "mode_of_tap",
    "padded_zero_fraction",
    "useful_mac_count",
    "redundancy_vs_stride",
]
