"""Table I: the six deconvolution layers benchmarked in the paper.

| Layer       | Network      | Dataset    | Input        | Output        | Kernel            | Stride |
|-------------|--------------|------------|--------------|---------------|-------------------|--------|
| GAN_Deconv1 | DCGAN        | LSUN       | (8,8,512)    | (16,16,256)   | (5,5,512,256)     | 2      |
| GAN_Deconv2 | Improved GAN | Cifar-10   | (4,4,512)    | (8,8,256)     | (5,5,512,256)     | 2      |
| GAN_Deconv3 | SNGAN        | Cifar-10   | (4,4,512)    | (8,8,256)     | (4,4,512,256)     | 2      |
| GAN_Deconv4 | SNGAN        | STL-10     | (6,6,512)    | (12,12,256)   | (4,4,512,256)     | 2      |
| FCN_Deconv1 | voc-fcn8s 2x | PASCAL VOC | (16,16,21)   | (34,34,21)    | (4,4,21,21)       | 2      |
| FCN_Deconv2 | voc-fcn8s 8x | PASCAL VOC | (70,70,21)   | (568,568,21)  | (16,16,21,21)     | 8      |

Table I omits padding; it is solved from the output size with PyTorch
transposed-convolution semantics (``solve_padding``), giving p=2/op=1 for
the 5x5 stride-2 GAN layers, p=1 for the 4x4 ones, and p=0 for both FCN
layers — each validated against the published output shape at import time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.deconv.shapes import DeconvSpec, solve_padding
from repro.errors import ShapeError


@dataclass(frozen=True)
class BenchmarkLayer:
    """One Table I row: identity metadata plus the resolved shape spec."""

    name: str
    network: str
    dataset: str
    spec: DeconvSpec

    def table_row(self) -> tuple[str, str, str, str, str, str, int]:
        """Row tuple formatted like Table I."""
        s = self.spec
        return (
            self.name,
            self.network,
            self.dataset,
            f"({s.input_height}, {s.input_width}, {s.in_channels})",
            f"({s.output_height}, {s.output_width}, {s.out_channels})",
            f"({s.kernel_height}, {s.kernel_width}, {s.in_channels}, {s.out_channels})",
            s.stride,
        )


def _make_layer(
    name: str, network: str, dataset: str,
    input_hw: tuple[int, int], in_channels: int,
    output_hw: tuple[int, int], out_channels: int,
    kernel: int, stride: int,
) -> BenchmarkLayer:
    """Build a layer, solving padding so the output matches Table I exactly."""
    pad_h, out_pad_h = solve_padding(input_hw[0], output_hw[0], kernel, stride)
    pad_w, out_pad_w = solve_padding(input_hw[1], output_hw[1], kernel, stride)
    if (pad_h, out_pad_h) != (pad_w, out_pad_w):
        raise ShapeError(f"{name}: asymmetric padding solution not supported")
    spec = DeconvSpec(
        input_height=input_hw[0], input_width=input_hw[1],
        in_channels=in_channels,
        kernel_height=kernel, kernel_width=kernel,
        out_channels=out_channels,
        stride=stride, padding=pad_h, output_padding=out_pad_h,
    )
    if (spec.output_height, spec.output_width) != output_hw:
        raise ShapeError(
            f"{name}: solved spec gives output "
            f"({spec.output_height}, {spec.output_width}), Table I says {output_hw}"
        )
    return BenchmarkLayer(name=name, network=network, dataset=dataset, spec=spec)


TABLE_I_LAYERS: tuple[BenchmarkLayer, ...] = (
    _make_layer("GAN_Deconv1", "DCGAN", "LSUN", (8, 8), 512, (16, 16), 256, 5, 2),
    _make_layer("GAN_Deconv2", "Improved GAN", "Cifar-10", (4, 4), 512, (8, 8), 256, 5, 2),
    _make_layer("GAN_Deconv3", "SNGAN", "Cifar-10", (4, 4), 512, (8, 8), 256, 4, 2),
    _make_layer("GAN_Deconv4", "SNGAN", "STL-10", (6, 6), 512, (12, 12), 256, 4, 2),
    _make_layer("FCN_Deconv1", "voc-fcn8s 2x", "PASCAL VOC", (16, 16), 21, (34, 34), 21, 4, 2),
    _make_layer("FCN_Deconv2", "voc-fcn8s 8x", "PASCAL VOC", (70, 70), 21, (568, 568), 21, 16, 8),
)


def layer_names() -> list[str]:
    """All Table I layer names in paper order."""
    return [layer.name for layer in TABLE_I_LAYERS]


def get_layer(name: str) -> BenchmarkLayer:
    """Look up a Table I layer by name (case-sensitive)."""
    for layer in TABLE_I_LAYERS:
        if layer.name == name:
            return layer
    raise KeyError(
        f"unknown benchmark layer {name!r}; choose from {layer_names()}"
    )
