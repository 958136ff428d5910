"""Gold-standard deconvolution and convolution reference implementations.

:func:`conv_transpose2d` is the *scatter* formulation — the literal
definition of transposed convolution as the gradient of convolution:

    ``out[s*ih + kh - p, s*iw + kw - p, m] += x[ih, iw, c] * w[kh, kw, c, m]``

Every other implementation in the library (Algorithm 1, Algorithm 2, the
RED zero-skipping dataflow, and the bit-accurate crossbar pipelines) is
property-tested for exact agreement with this function.
"""

from __future__ import annotations

import numpy as np

from repro.deconv.shapes import DeconvSpec
from repro.errors import ShapeError


def _check_operands(x: np.ndarray, w: np.ndarray, spec: DeconvSpec) -> None:
    """Validate activation/kernel arrays against ``spec``."""
    if x.ndim != 3:
        raise ShapeError(f"input must be (H, W, C), got ndim={x.ndim}")
    if w.ndim != 4:
        raise ShapeError(f"kernel must be (KH, KW, C, M), got ndim={w.ndim}")
    if tuple(x.shape) != spec.input_shape:
        raise ShapeError(f"input shape {x.shape} != spec {spec.input_shape}")
    if tuple(w.shape) != spec.kernel_shape:
        raise ShapeError(f"kernel shape {w.shape} != spec {spec.kernel_shape}")


def rotate_kernel_180(w: np.ndarray) -> np.ndarray:
    """Rotate a ``(KH, KW, C, M)`` kernel by 180 degrees in its spatial dims.

    This is the "Rotation" step of the paper's padding-free Algorithm 2 and
    also relates Algorithm 1's convolution to the scatter definition.
    """
    if w.ndim != 4:
        raise ShapeError(f"kernel must be (KH, KW, C, M), got ndim={w.ndim}")
    return w[::-1, ::-1, :, :]


def conv_transpose2d(x: np.ndarray, w: np.ndarray, spec: DeconvSpec) -> np.ndarray:
    """Transposed convolution by direct scatter (the reference semantics).

    Args:
        x: input activations, ``(IH, IW, C)``.
        w: kernel, ``(KH, KW, C, M)``.
        spec: layer specification; shapes must match exactly.

    Returns:
        Output activations, ``(OH, OW, M)``, dtype ``float64``.
    """
    _check_operands(x, w, spec)
    s, p = spec.stride, spec.padding
    oh, ow, m = spec.output_shape
    out = np.zeros((oh, ow, m), dtype=np.float64)
    # Scatter each kernel tap as a strided block write: for tap (kh, kw) the
    # input grid lands on output rows s*ih + kh - p clipped to [0, OH).
    for kh in range(spec.kernel_height):
        ys = np.arange(spec.input_height) * s + kh - p
        y_mask = (ys >= 0) & (ys < oh)
        if not y_mask.any():
            continue
        for kw in range(spec.kernel_width):
            xs = np.arange(spec.input_width) * s + kw - p
            x_mask = (xs >= 0) & (xs < ow)
            if not x_mask.any():
                continue
            contrib = np.tensordot(
                x[y_mask][:, x_mask, :], w[kh, kw], axes=([2], [0])
            )
            out[np.ix_(ys[y_mask], xs[x_mask])] += contrib
    return out


def conv2d_valid(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Stride-1 *valid* cross-correlation of ``(H, W, C)`` with ``(KH, KW, C, M)``.

    This is the convolution primitive Algorithm 1 runs on the zero-inserted
    map.  Implemented with ``stride_tricks`` windows + one einsum, so it is
    fast enough for the FCN-scale maps (568x568) used in the benchmarks.
    """
    if x.ndim != 3 or w.ndim != 4:
        raise ShapeError("conv2d_valid expects (H, W, C) input and (KH, KW, C, M) kernel")
    h, width, c = x.shape
    kh, kw, wc, m = w.shape
    if wc != c:
        raise ShapeError(f"channel mismatch: input C={c}, kernel C={wc}")
    if kh > h or kw > width:
        raise ShapeError(
            f"kernel ({kh}x{kw}) larger than input ({h}x{width}); "
            "valid convolution is empty"
        )
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(0, 1))
    # windows: (OH, OW, C, KH, KW); kernel: (KH, KW, C, M)
    return np.einsum("yxcij,ijcm->yxm", windows, w, optimize=True)


def conv2d(
    x: np.ndarray,
    w: np.ndarray,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Strided cross-correlation with symmetric zero padding.

    General forward-convolution helper used by the NumPy NN substrate (the
    non-deconv layers of the FCN / GAN discriminators).
    """
    if padding:
        x = np.pad(x, ((padding, padding), (padding, padding), (0, 0)))
    full = conv2d_valid(x, w)
    if stride != 1:
        full = full[::stride, ::stride, :]
    return full
