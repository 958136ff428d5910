"""Pixel-wise mapping (paper Eq. 1).

The 4-D deconvolution kernel ``W (KH, KW, C, M)`` maps onto ``KH*KW``
sub-crossbars ("SC"s), each a ``C x M`` matrix, forming the sub-crossbar
tensor (SCT):

    ``SCT[c, m, i * KW + j] = W[i, j, c, m]``            (Eq. 1)

Each SC holds exactly one kernel tap across all channels and filters, so
the taps of one computation mode (Fig. 6) can be summed on shared bitlines
("vertical sum-up") while taps of different modes run concurrently — the
structural property behind the zero-skipping data flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.deconv.shapes import DeconvSpec
from repro.errors import MappingError, ShapeError


@dataclass(frozen=True)
class SubCrossbarTensor:
    """The SCT of Eq. 1 plus its layer spec.

    Attributes:
        data: array of shape ``(C, M, KH*KW)``; slice ``[..., t]`` is the
            sub-crossbar of kernel tap ``t = kh * KW + kw``.
        spec: the layer the tensor was built for.
    """

    data: np.ndarray
    spec: DeconvSpec

    def __post_init__(self) -> None:
        expected = (
            self.spec.in_channels,
            self.spec.out_channels,
            self.spec.num_kernel_taps,
        )
        if tuple(self.data.shape) != expected:
            raise MappingError(
                f"SCT shape {self.data.shape} != expected {expected}"
            )

    def tap_index(self, kh: int, kw: int) -> int:
        """Flat tap index ``kh * KW + kw`` with bounds checking."""
        if not (0 <= kh < self.spec.kernel_height and 0 <= kw < self.spec.kernel_width):
            raise MappingError(
                f"tap ({kh}, {kw}) outside kernel "
                f"{self.spec.kernel_height}x{self.spec.kernel_width}"
            )
        return kh * self.spec.kernel_width + kw

    def sub_crossbar(self, kh: int, kw: int) -> np.ndarray:
        """The ``C x M`` sub-crossbar for kernel tap ``(kh, kw)``."""
        return self.data[:, :, self.tap_index(kh, kw)]


def build_sct(w: np.ndarray, spec: DeconvSpec) -> SubCrossbarTensor:
    """Apply Eq. 1: reorder the kernel into the sub-crossbar tensor."""
    if tuple(w.shape) != spec.kernel_shape:
        raise ShapeError(f"kernel shape {w.shape} != spec {spec.kernel_shape}")
    kh, kw, c, m = w.shape
    data = w.transpose(2, 3, 0, 1).reshape(c, m, kh * kw)
    return SubCrossbarTensor(data=data, spec=spec)


def kernel_from_sct(sct: SubCrossbarTensor) -> np.ndarray:
    """Invert Eq. 1, recovering the ``(KH, KW, C, M)`` kernel exactly."""
    spec = sct.spec
    c, m, taps = sct.data.shape
    return sct.data.reshape(c, m, spec.kernel_height, spec.kernel_width).transpose(
        2, 3, 0, 1
    )
