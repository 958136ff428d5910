"""Weight initializers for the synthetic workload networks.

Real trained checkpoints are unavailable offline; these initializers give
the networks realistic weight *statistics* (DCGAN's N(0, 0.02), FCN's
bilinear-upsampling deconvolution kernels), which is all the accelerator
evaluation observes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn.modules import Module


def normal_init(module: Module, std: float = 0.02, rng: np.random.Generator | None = None) -> Module:
    """Re-draw every weight parameter from N(0, std); zero the biases.

    Rebinds each parameter rather than writing into it, so it also runs
    over the read-only stand-in weights of a tree built with
    :data:`~repro.nn.modules.SHAPES_ONLY`.
    """
    rng = rng or np.random.default_rng(0)
    for owner in module.modules():
        params = owner._parameters
        for name, param in list(params.items()):
            if name == "weight":
                params[name] = rng.normal(0.0, std, size=param.shape).astype(
                    param.dtype, copy=False
                )
            elif name == "beta" or name == "bias":
                params[name] = np.zeros_like(param)
    return module


def dcgan_init(module: Module, rng: np.random.Generator | None = None) -> Module:
    """The DCGAN paper's initialization: weights ~ N(0, 0.02)."""
    return normal_init(module, std=0.02, rng=rng)


def bilinear_upsampling_kernel(kernel_size: int, in_channels: int, out_channels: int) -> np.ndarray:
    """Bilinear-interpolation deconvolution kernel, FCN-style.

    The FCN paper initializes its up-sampling (deconvolution) layers to
    perform bilinear interpolation; channel ``c`` maps to output channel
    ``c`` only.  Returns ``(K, K, C_in, C_out)``.
    """
    if in_channels != out_channels:
        raise ShapeError(
            "bilinear upsampling requires in_channels == out_channels, got "
            f"{in_channels} != {out_channels}"
        )
    factor = (kernel_size + 1) // 2
    center = factor - 1.0 if kernel_size % 2 == 1 else factor - 0.5
    og = np.arange(kernel_size, dtype=np.float64)
    filt_1d = 1.0 - np.abs(og - center) / factor
    filt = np.outer(filt_1d, filt_1d)
    weight = np.zeros((kernel_size, kernel_size, in_channels, out_channels))
    for c in range(in_channels):
        weight[:, :, c, c] = filt
    return weight
