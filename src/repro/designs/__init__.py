"""Accelerator designs: the two baselines the paper compares against.

* :class:`ZeroPaddingDesign` — conventional convolution mapping fed the
  zero-inserted input (what ReGAN does for deconvolution).
* :class:`PaddingFreeDesign` — per-pixel kernel mapping with overlap-add
  and crop circuitry (the FCN-Engine approach ported to ReRAM).

RED itself lives in :mod:`repro.core` (it is the paper's contribution);
all three share the :class:`DeconvDesign` interface defined here.
"""
