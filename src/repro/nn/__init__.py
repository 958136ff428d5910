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

from repro.nn import functional
from repro.nn.init import (
    bilinear_upsampling_kernel,
    dcgan_init,
    normal_init,
)
from repro.nn.modules import (
    BatchNorm2d,
    Conv2d,
    ConvTranspose2d,
    Identity,
    Module,
    ReLU,
    Sequential,
    Tanh,
)
from repro.nn.quantize import (
    QuantParams,
    quantize_tensor,
    symmetric_quant_params,
)

__all__ = [
    "functional",
    "Module",
    "Sequential",
    "Conv2d",
    "ConvTranspose2d",
    "BatchNorm2d",
    "ReLU",
    "Tanh",
    "Identity",
    "normal_init",
    "dcgan_init",
    "bilinear_upsampling_kernel",
    "QuantParams",
    "quantize_tensor",
    "symmetric_quant_params",
]
