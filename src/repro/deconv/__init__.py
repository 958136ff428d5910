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
