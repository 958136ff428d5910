"""Algorithm 2: padding-free deconvolution.

Steps (paper Sec. II-B):

a) *Rotation* — rotate the kernel 180 degrees.
b) *Convolution* — for every input pixel, MAC it against the whole rotated
   kernel along the channel direction, producing a ``KH x KW x M`` patch.
c) *Addition* — overlap-add the patches at ``stride`` offsets.
d) *Cropping* — crop the borders to the final output size.

The paper presents steps (a)-(b) relative to *its* convolution convention;
composed with our scatter reference convention the two 180-degree flips
cancel, so the patch for input pixel ``(ih, iw)`` lands at output rows
``s*ih + kh - p`` — i.e. the overlap-add runs on the kernel as stored and
the crop removes ``p`` leading rows/columns.  Step (b) is one crossbar
VMM per input pixel (:class:`~repro.designs.padding_free_design
.PaddingFreeDesign`); the functions below are steps (c) and (d) and the
canvas size, whose counts are the padding-free design's overhead (extra
adders and crop circuitry cost area and energy).
"""

from __future__ import annotations

import numpy as np

from repro.deconv.shapes import DeconvSpec


def full_overlap_shape(spec: DeconvSpec) -> tuple[int, int]:
    """Size of the uncropped overlap-add canvas: ``((I-1)s + K, ...)``."""
    fh = (spec.input_height - 1) * spec.stride + spec.kernel_height
    fw = (spec.input_width - 1) * spec.stride + spec.kernel_width
    return fh, fw


def overlap_add(products: np.ndarray, spec: DeconvSpec) -> np.ndarray:
    """Step (c): scatter the per-pixel patches onto the full canvas."""
    fh, fw = full_overlap_shape(spec)
    m = spec.out_channels
    full = np.zeros((fh, fw, m), dtype=np.float64)
    s = spec.stride
    for kh in range(spec.kernel_height):
        for kw in range(spec.kernel_width):
            full[
                kh : kh + (spec.input_height - 1) * s + 1 : s,
                kw : kw + (spec.input_width - 1) * s + 1 : s,
                :,
            ] += products[:, :, kh, kw, :]
    return full


def crop_to_output(full: np.ndarray, spec: DeconvSpec) -> np.ndarray:
    """Step (d): crop ``p`` leading rows/cols and trim to ``(OH, OW)``.

    With output padding the canvas is short by ``op`` rows/columns at the
    bottom/right; the missing positions receive no contributions and are
    zero by the transposed-convolution definition, so we zero-extend.
    """
    p = spec.padding
    oh, ow = spec.output_height, spec.output_width
    cropped = full[p:, p:, :]
    if cropped.shape[0] < oh or cropped.shape[1] < ow:
        padded = np.zeros((oh, ow, spec.out_channels), dtype=cropped.dtype)
        padded[: cropped.shape[0], : cropped.shape[1], :] = cropped[:oh, :ow, :]
        return padded
    return cropped[:oh, :ow, :]
