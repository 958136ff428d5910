"""Shape algebra for deconvolution layers.

A deconvolution (transposed convolution) with input ``IH x IW x C``, kernel
``KH x KW x C x M``, stride ``s``, padding ``p`` and output padding ``op``
produces output

    ``OH = (IH - 1) * s - 2 * p + KH + op``        (same for width)

which matches the PyTorch ``conv_transpose2d`` convention the GAN/FCN
models in Table I follow.  The equivalent *zero-padding* view (the paper's
Algorithm 1) stretches the input by inserting ``s - 1`` zeros between
pixels, adds a border of ``K - 1 - p`` zeros (plus ``op`` extra rows/columns
at the bottom/right), and then runs a stride-1 valid convolution with the
180-degree-rotated kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Sequence

import numpy as np

from repro.errors import ShapeError
from repro.utils.validation import check_non_negative_int, check_positive_int


@dataclass(frozen=True)
class PaddedGeometry:
    """Geometry of the zero-inserted ("padded") input map of Algorithm 1.

    Attributes:
        height / width: full padded map size.
        border_top / border_left: leading zero border, ``K - 1 - p``.
        border_bottom / border_right: trailing zero border,
            ``K - 1 - p + output_padding``.
        stretched_height / stretched_width: size after zero insertion but
            before adding borders, ``(I - 1) * s + 1``.
    """

    height: int
    width: int
    border_top: int
    border_left: int
    border_bottom: int
    border_right: int
    stretched_height: int
    stretched_width: int

    @property
    def num_pixels(self) -> int:
        """Total pixel positions in the padded map (per channel)."""
        return self.height * self.width


@dataclass(frozen=True)
class DeconvSpec:
    """Complete shape specification of one deconvolution layer.

    Attributes mirror Table I of the paper: input ``(IH, IW, C)``, kernel
    ``(KH, KW, C, M)``, ``stride``, ``padding`` and ``output_padding``
    (all symmetric in H/W unless stated otherwise via the ``*_w`` fields).
    """

    input_height: int
    input_width: int
    in_channels: int
    kernel_height: int
    kernel_width: int
    out_channels: int
    stride: int
    padding: int = 0
    output_padding: int = 0

    def __post_init__(self) -> None:
        check_positive_int(self.input_height, "input_height")
        check_positive_int(self.input_width, "input_width")
        check_positive_int(self.in_channels, "in_channels")
        check_positive_int(self.kernel_height, "kernel_height")
        check_positive_int(self.kernel_width, "kernel_width")
        check_positive_int(self.out_channels, "out_channels")
        check_positive_int(self.stride, "stride")
        check_non_negative_int(self.padding, "padding")
        check_non_negative_int(self.output_padding, "output_padding")
        if self.padding >= self.kernel_height or self.padding >= self.kernel_width:
            raise ShapeError(
                f"padding {self.padding} must be smaller than the kernel "
                f"({self.kernel_height}x{self.kernel_width}); the zero-padding "
                "view would otherwise have a negative border"
            )
        if self.output_padding >= self.stride:
            raise ShapeError(
                f"output_padding {self.output_padding} must be < stride "
                f"{self.stride} (transposed-convolution convention)"
            )
        if self.output_height < 1 or self.output_width < 1:
            raise ShapeError(
                f"spec {self} produces a non-positive output size "
                f"({self.output_height}x{self.output_width})"
            )

    # ------------------------------------------------------------------
    # Derived sizes
    # ------------------------------------------------------------------
    @property
    def output_height(self) -> int:
        """``OH = (IH - 1) * s - 2p + KH + op``."""
        return (
            (self.input_height - 1) * self.stride
            - 2 * self.padding
            + self.kernel_height
            + self.output_padding
        )

    @property
    def output_width(self) -> int:
        """``OW = (IW - 1) * s - 2p + KW + op``."""
        return (
            (self.input_width - 1) * self.stride
            - 2 * self.padding
            + self.kernel_width
            + self.output_padding
        )

    @property
    def input_shape(self) -> tuple[int, int, int]:
        """``(IH, IW, C)``."""
        return (self.input_height, self.input_width, self.in_channels)

    @property
    def kernel_shape(self) -> tuple[int, int, int, int]:
        """``(KH, KW, C, M)``."""
        return (
            self.kernel_height,
            self.kernel_width,
            self.in_channels,
            self.out_channels,
        )

    @property
    def output_shape(self) -> tuple[int, int, int]:
        """``(OH, OW, M)``."""
        return (self.output_height, self.output_width, self.out_channels)

    @property
    def num_input_pixels(self) -> int:
        """``IH * IW`` (pixel positions, channel dimension excluded)."""
        return self.input_height * self.input_width

    @property
    def num_output_pixels(self) -> int:
        """``OH * OW``."""
        return self.output_height * self.output_width

    @property
    def num_kernel_taps(self) -> int:
        """``KH * KW``."""
        return self.kernel_height * self.kernel_width

    @property
    def num_weights(self) -> int:
        """Total scalar weights, ``KH * KW * C * M``."""
        return self.num_kernel_taps * self.in_channels * self.out_channels

    # ------------------------------------------------------------------
    # Zero-padding (Algorithm 1) geometry
    # ------------------------------------------------------------------
    def padded_geometry(self) -> PaddedGeometry:
        """Geometry of the zero-inserted map convolved in Algorithm 1."""
        border_top = self.kernel_height - 1 - self.padding
        border_left = self.kernel_width - 1 - self.padding
        stretched_h = (self.input_height - 1) * self.stride + 1
        stretched_w = (self.input_width - 1) * self.stride + 1
        height = stretched_h + border_top * 2 + self.output_padding
        width = stretched_w + border_left * 2 + self.output_padding
        return PaddedGeometry(
            height=height,
            width=width,
            border_top=border_top,
            border_left=border_left,
            border_bottom=border_top + self.output_padding,
            border_right=border_left + self.output_padding,
            stretched_height=stretched_h,
            stretched_width=stretched_w,
        )

    def describe(self) -> str:
        """One-line human-readable summary, Table I style."""
        return (
            f"in=({self.input_height},{self.input_width},{self.in_channels}) "
            f"out=({self.output_height},{self.output_width},{self.out_channels}) "
            f"kernel=({self.kernel_height},{self.kernel_width},"
            f"{self.in_channels},{self.out_channels}) stride={self.stride} "
            f"pad={self.padding} out_pad={self.output_padding}"
        )


#: The nine constructor fields of :class:`DeconvSpec`, in declaration order.
_SPEC_FIELDS = attrgetter(
    "input_height",
    "input_width",
    "in_channels",
    "kernel_height",
    "kernel_width",
    "out_channels",
    "stride",
    "padding",
    "output_padding",
)


@dataclass(frozen=True, eq=False)
class SpecArrays:
    """Struct-of-arrays view of many :class:`DeconvSpec` instances.

    Every field is a flat ``int64`` array of length ``len(specs)``; the
    derived counts mirror the scalar spec's properties elementwise and
    are computed once per instance, on first use.  This is the packing
    layer the vectorized analytic evaluation plane
    (:mod:`repro.arch.metrics_batch`) computes over — one array op
    instead of one Python attribute walk per job.  :meth:`split` cuts
    one pack into row slices that share its derived counts, so several
    design families reading the same pack pay for each count once.
    """

    input_height: np.ndarray
    input_width: np.ndarray
    in_channels: np.ndarray
    kernel_height: np.ndarray
    kernel_width: np.ndarray
    out_channels: np.ndarray
    stride: np.ndarray
    padding: np.ndarray
    output_padding: np.ndarray

    @classmethod
    def from_specs(cls, specs: Sequence[DeconvSpec]) -> "SpecArrays":
        """Pack already-validated specs into column arrays."""
        if len(specs) == 0:
            empty = np.empty(0, dtype=np.int64)
            return cls(*([empty] * 9))
        table = np.asarray([_SPEC_FIELDS(spec) for spec in specs], dtype=np.int64)
        return cls(*table.T)

    def __len__(self) -> int:
        return self.input_height.shape[0]

    def split(self, stops: Sequence[int]) -> list["SpecArrays"]:
        """Consecutive row slices ``[0, stops[0]), [stops[0], stops[1]), ...``.

        Every derived count is computed once over the whole pack first;
        each slice carries views of those arrays instead of recomputing
        them over its own rows.
        """
        for name in _DERIVED_COUNTS:
            getattr(self, name)
        columns = self.__dict__
        slices = []
        start = 0
        for stop in stops:
            part = object.__new__(SpecArrays)
            part.__dict__.update(
                {name: array[start:stop] for name, array in columns.items()}
            )
            slices.append(part)
            start = stop
        return slices

    # ------------------------------------------------------------------
    # Derived counts (elementwise mirrors of the DeconvSpec properties)
    # ------------------------------------------------------------------
    @cached_property
    def output_height(self) -> np.ndarray:
        """``OH = (IH - 1) * s - 2p + KH + op`` per spec."""
        return (
            (self.input_height - 1) * self.stride
            - 2 * self.padding
            + self.kernel_height
            + self.output_padding
        )

    @cached_property
    def output_width(self) -> np.ndarray:
        """``OW = (IW - 1) * s - 2p + KW + op`` per spec."""
        return (
            (self.input_width - 1) * self.stride
            - 2 * self.padding
            + self.kernel_width
            + self.output_padding
        )

    @cached_property
    def num_input_pixels(self) -> np.ndarray:
        """``IH * IW`` per spec."""
        return self.input_height * self.input_width

    @cached_property
    def num_output_pixels(self) -> np.ndarray:
        """``OH * OW`` per spec."""
        return self.output_height * self.output_width

    @cached_property
    def num_kernel_taps(self) -> np.ndarray:
        """``KH * KW`` per spec."""
        return self.kernel_height * self.kernel_width

    @cached_property
    def num_weights(self) -> np.ndarray:
        """``KH * KW * C * M`` per spec."""
        return self.num_kernel_taps * self.in_channels * self.out_channels

    @cached_property
    def useful_macs(self) -> np.ndarray:
        """MACs with a live input operand per spec (Fig. 4's MAC view).

        See :func:`repro.deconv.analysis.useful_mac_count_batch`.
        """
        # Bound at call time: repro.deconv.analysis imports this module.
        from repro.deconv.analysis import useful_mac_count_batch

        return useful_mac_count_batch(self)


#: The :class:`SpecArrays` counts :meth:`SpecArrays.split` shares.
_DERIVED_COUNTS = (
    "output_height",
    "output_width",
    "num_input_pixels",
    "num_output_pixels",
    "num_kernel_taps",
    "num_weights",
    "useful_macs",
)


def solve_padding(
    input_size: int,
    output_size: int,
    kernel: int,
    stride: int,
) -> tuple[int, int]:
    """Solve for ``(padding, output_padding)`` matching a target output size.

    Table I gives input/output/kernel/stride but omits padding; this inverts
    ``O = (I - 1) s - 2p + K + op`` choosing the smallest ``op`` in
    ``[0, s)`` that admits an integer ``p >= 0``.
    """
    for output_padding in range(stride):
        numerator = (input_size - 1) * stride + kernel + output_padding - output_size
        if numerator < 0 or numerator % 2 != 0:
            continue
        padding = numerator // 2
        if padding < kernel:
            return padding, output_padding
    raise ShapeError(
        f"no (padding, output_padding) reproduces output {output_size} from "
        f"input {input_size}, kernel {kernel}, stride {stride}"
    )
