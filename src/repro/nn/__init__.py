"""Minimal NumPy neural-network substrate.

The paper's workloads (DCGAN, Improved GAN, SNGAN generators; FCN-8s
upsampling heads) are normally expressed in PyTorch; this package provides
the needed subset — convolution, transposed convolution, batch-norm,
activations, pooling — as pure NumPy so the whole reproduction runs
offline.  Layer weight layout follows the paper: ``(KH, KW, C_in, C_out)``;
activations are batched ``(N, C, H, W)``.

Modules intentionally implement inference only: the accelerator study
evaluates forward passes of pre-trained-shaped networks, and weights are
seeded synthetically (see :mod:`repro.workloads.networks`;
``tests/workloads/test_weight_golden.py`` pins every seeded weight).
"""
