"""Zero-redundancy analytics (paper Fig. 4) and operation counting.

The paper's *zero redundancy ratio* is the fraction of zero pixels in the
zero-inserted ("padded") input map — the share of crossbar input slots the
conventional zero-padding design wastes.  For the SNGAN layer (4x4 input,
kernel 4, stride 2) the padded map is 11x11 with 16 live pixels:
``1 - 16/121 = 86.8%``, matching the figure; at stride 32 (FCN convention,
kernel ``2s``) it reaches 99.8%+.

We also provide the MAC-level view (fraction of multiply-accumulates whose
input operand is an inserted zero), which is what actually scales energy.
"""

from __future__ import annotations

import numpy as np

from repro.deconv.shapes import DeconvSpec, SpecArrays
from repro.errors import ParameterError


def padded_zero_fraction(spec: DeconvSpec) -> float:
    """Fraction of zero pixels in the padded map (Fig. 4's metric)."""
    geom = spec.padded_geometry()
    live = spec.num_input_pixels
    return 1.0 - live / geom.num_pixels


def useful_mac_count(spec: DeconvSpec) -> int:
    """MACs with a live (non-inserted-zero) input operand.

    Every (input pixel, kernel tap) pair whose scatter target lands inside
    the output contributes ``C*M`` MACs; equivalently this is the number of
    in-bounds gather taps summed over output pixels.  Computed in closed
    form per dimension and multiplied, since H and W separate.
    """
    def taps_1d(in_size: int, k: int) -> int:
        s, p = spec.stride, spec.padding
        out_size = (in_size - 1) * s - 2 * p + k + spec.output_padding
        # Input index i contributes via tap kk iff 0 <= s*i + kk - p < out.
        return sum(
            1
            for kk in range(k)
            for i in range(in_size)
            if 0 <= s * i + kk - p < out_size
        )

    rows = taps_1d(spec.input_height, spec.kernel_height)
    cols = taps_1d(spec.input_width, spec.kernel_width)
    return rows * cols * spec.in_channels * spec.out_channels


def _edge_loss(edge: np.ndarray, stride: np.ndarray, in_size: np.ndarray) -> np.ndarray:
    """``sum(max(0, edge - stride*i) for i in range(in_size))`` per entry.

    An arithmetic series over its ``n = clip(ceil(edge/stride), 0,
    in_size)`` positive terms: ``n*edge - stride*n*(n-1)/2``.
    """
    # ceil(a / s) for positive s, via floor division: -((-a) // s).
    terms = np.minimum(np.maximum(-((-edge) // stride), 0), in_size)
    return terms * edge - stride * (terms * (terms - 1) // 2)


def _taps_1d_batch(
    in_size: np.ndarray,
    kernel: np.ndarray,
    stride: np.ndarray,
    padding: np.ndarray,
    output_padding: np.ndarray,
) -> np.ndarray:
    """Vectorized one-dimensional live-tap count, one value per entry.

    Counts the ``(kk, i)`` pairs with ``0 <= s*i + kk - p < out`` — the
    same set the scalar :func:`useful_mac_count` enumerates — in closed
    form.  With ``out = (in_size - 1)*s - 2p + K + op`` and
    ``j = in_size - 1 - i``, input index ``i`` reaches the taps
    ``[a_i, K - b_j)``: the left-edge loss is ``a_i = max(0, p - s*i)``
    and the right-edge loss ``b_j = max(0, (p - op) - s*j)``.  A valid
    spec keeps ``a_i + b_j < K`` (each loss alone is at most ``p < K``;
    both together are ``2p - op - s*(in_size - 1) = K - out``), so no
    interval is empty and the count is ``in_size*K`` minus both losses
    summed over ``i`` (:func:`_edge_loss`).
    """
    return (
        in_size * kernel
        - _edge_loss(padding, stride, in_size)
        - _edge_loss(padding - output_padding, stride, in_size)
    )


def useful_mac_count_batch(arrays: SpecArrays) -> np.ndarray:
    """Vectorized :func:`useful_mac_count`: one ``int64`` per spec.

    The height and width tap counts come from one
    :func:`_taps_1d_batch` pass over both dimensions stacked end to end.
    Exact integer arithmetic throughout, so the result is identical to
    the scalar count (property-tested in ``tests/deconv/test_analysis.py``).
    :attr:`SpecArrays.useful_macs <repro.deconv.shapes.SpecArrays.useful_macs>`
    caches this per pack.
    """
    jobs = len(arrays)
    taps = _taps_1d_batch(
        np.concatenate((arrays.input_height, arrays.input_width)),
        np.concatenate((arrays.kernel_height, arrays.kernel_width)),
        np.concatenate((arrays.stride, arrays.stride)),
        np.concatenate((arrays.padding, arrays.padding)),
        np.concatenate((arrays.output_padding, arrays.output_padding)),
    )
    return taps[:jobs] * taps[jobs:] * arrays.in_channels * arrays.out_channels


def redundancy_vs_stride(
    input_size: int,
    strides: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
    kernel_rule: str = "fixed",
    kernel_size: int = 4,
) -> list[tuple[int, float]]:
    """Reproduce one curve of Fig. 4.

    Args:
        input_size: square input feature-map side (4 for SNGAN, 16 for FCN).
        strides: stride sweep (the figure uses 1..32 in octaves).
        kernel_rule: ``"fixed"`` keeps ``kernel_size`` constant (SNGAN-style
            curve); ``"fcn"`` uses the FCN bilinear-upsampling convention
            ``K = 2s`` with ``p = s // 2``.
        kernel_size: kernel side for the ``"fixed"`` rule.

    Returns:
        List of ``(stride, zero_redundancy_ratio)`` pairs.
    """
    if kernel_rule not in ("fixed", "fcn"):
        raise ParameterError(f"unknown kernel_rule {kernel_rule!r}")
    points = []
    for s in strides:
        if kernel_rule == "fcn":
            k = max(2 * s, 2)
            p = s // 2
        else:
            k = kernel_size
            p = min(1, k - 1) if s > 1 else 0
        # Padding must stay < kernel; clamp for the degenerate stride-1 case.
        p = min(p, k - 1)
        spec = DeconvSpec(
            input_height=input_size,
            input_width=input_size,
            in_channels=1,
            kernel_height=k,
            kernel_width=k,
            out_channels=1,
            stride=s,
            padding=p,
        )
        points.append((s, padded_zero_fraction(spec)))
    return points
