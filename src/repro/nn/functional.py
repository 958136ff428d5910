"""Functional (stateless) NN operations on ``(N, C, H, W)`` tensors.

Spatial kernels use the paper layout ``(KH, KW, C_in, C_out)``.  The
convolution primitives delegate to :mod:`repro.deconv.reference`, which is
the same code path the accelerator simulators validate against — so a
network forward pass and a crossbar-mapped forward pass share one numeric
ground truth.
"""

from __future__ import annotations

import numpy as np

from repro.deconv import reference as _ref
from repro.deconv.shapes import DeconvSpec
from repro.errors import ShapeError


def _check_nchw(x: np.ndarray, name: str = "input") -> None:
    if x.ndim != 4:
        raise ShapeError(f"{name} must be (N, C, H, W), got ndim={x.ndim}")


def conv2d(
    x: np.ndarray, w: np.ndarray, bias: np.ndarray | None = None,
    stride: int = 1, padding: int = 0,
) -> np.ndarray:
    """Batched strided convolution (cross-correlation)."""
    _check_nchw(x)
    outs = []
    for sample in x:
        hwc = np.transpose(sample, (1, 2, 0))
        out = _ref.conv2d(hwc, w, stride=stride, padding=padding)
        outs.append(np.transpose(out, (2, 0, 1)))
    result = np.stack(outs)
    if bias is not None:
        result = result + bias.reshape(1, -1, 1, 1)
    return result


def conv_transpose2d(
    x: np.ndarray, w: np.ndarray, bias: np.ndarray | None = None,
    stride: int = 1, padding: int = 0, output_padding: int = 0,
) -> np.ndarray:
    """Batched transposed convolution, the up-sampling op RED accelerates."""
    _check_nchw(x)
    n, c, ih, iw = x.shape
    kh, kw, wc, m = w.shape
    if wc != c:
        raise ShapeError(f"channel mismatch: input C={c}, kernel C_in={wc}")
    spec = DeconvSpec(
        input_height=ih, input_width=iw, in_channels=c,
        kernel_height=kh, kernel_width=kw, out_channels=m,
        stride=stride, padding=padding, output_padding=output_padding,
    )
    outs = []
    for sample in x:
        hwc = np.transpose(sample, (1, 2, 0))
        out = _ref.conv_transpose2d(hwc, w, spec)
        outs.append(np.transpose(out, (2, 0, 1)))
    result = np.stack(outs)
    if bias is not None:
        result = result + bias.reshape(1, -1, 1, 1)
    return result


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0.0)


def tanh(x: np.ndarray) -> np.ndarray:
    """Hyperbolic tangent (GAN generator output activation)."""
    return np.tanh(x)


def batch_norm(
    x: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = 1e-5,
) -> np.ndarray:
    """Inference-mode batch normalization over the channel axis."""
    _check_nchw(x)
    shape = (1, -1, 1, 1)
    scale = gamma / np.sqrt(running_var + eps)
    return x * scale.reshape(shape) + (beta - running_mean * scale).reshape(shape)
