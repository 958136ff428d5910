"""Computation-mode decomposition (paper Fig. 6).

Sliding the kernel over the zero-inserted map, the set of kernel taps that
line up with non-zero pixels depends only on the output pixel's *phase*
``(oy mod s, ox mod s)``.  There are therefore exactly ``stride^2``
computation modes; tap ``(kh, kw)`` belongs to the mode whose phase is

    ``phi_y = (kh - p) mod s``,  ``phi_x = (kw - p) mod s``

because tap ``kh`` contributes to output row ``oy`` iff
``(oy + p - kh) mod s == 0``.  The modes partition the kernel exclusively
and exhaustively — the property that lets RED map each tap to its own
sub-crossbar and run all modes of an output block concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.deconv.shapes import DeconvSpec
from repro.errors import ShapeError


@dataclass(frozen=True)
class ComputationMode:
    """One of the ``stride^2`` modes: an output phase plus its kernel taps.

    Attributes:
        phase_y / phase_x: output-pixel residues ``oy mod s`` / ``ox mod s``.
        taps: tuple of ``(kh, kw)`` kernel positions active in this mode.
    """

    phase_y: int
    phase_x: int
    taps: tuple[tuple[int, int], ...]

    @property
    def num_taps(self) -> int:
        """Number of kernel taps (sub-crossbars summed) in this mode."""
        return len(self.taps)


def mode_of_tap(kh: int, kw: int, spec: DeconvSpec) -> tuple[int, int]:
    """Return the output phase ``(phi_y, phi_x)`` that tap ``(kh, kw)`` serves."""
    if not (0 <= kh < spec.kernel_height and 0 <= kw < spec.kernel_width):
        raise ShapeError(
            f"tap ({kh}, {kw}) outside kernel "
            f"{spec.kernel_height}x{spec.kernel_width}"
        )
    s, p = spec.stride, spec.padding
    return ((kh - p) % s, (kw - p) % s)


def decompose_modes(spec: DeconvSpec) -> list[ComputationMode]:
    """Partition the kernel taps into the ``stride^2`` computation modes.

    Modes are ordered row-major by phase ``(phi_y, phi_x)``.  Phases with no
    taps (possible when ``K < s``) yield empty modes — those output pixels
    are identically zero.
    """
    s = spec.stride
    buckets: dict[tuple[int, int], list[tuple[int, int]]] = {
        (py, px): [] for py in range(s) for px in range(s)
    }
    for kh in range(spec.kernel_height):
        for kw in range(spec.kernel_width):
            buckets[mode_of_tap(kh, kw, spec)].append((kh, kw))
    return [
        ComputationMode(phase_y=py, phase_x=px, taps=tuple(buckets[(py, px)]))
        for py in range(s)
        for px in range(s)
    ]


def num_nonempty_modes(spec: DeconvSpec) -> int:
    """Closed-form count of modes owning at least one tap.

    The phases ``(kh - p) mod s`` of ``kh in [0, KH)`` are ``KH``
    consecutive residues, so ``min(KH, s)`` of them are distinct (the
    padding only rotates the set); H and W factorize, giving
    ``min(KH, s) * min(KW, s)`` nonempty modes.  Property-tested against
    :func:`decompose_modes` and used by the vectorized analytic plane,
    which cannot afford the full decomposition per job.
    """
    return min(spec.kernel_height, spec.stride) * min(spec.kernel_width, spec.stride)


def check_mode_partition(spec: DeconvSpec) -> None:
    """Raise if the modes do not exactly partition the kernel taps."""
    modes = decompose_modes(spec)
    seen: set[tuple[int, int]] = set()
    total = 0
    for mode in modes:
        for tap in mode.taps:
            if tap in seen:
                raise ShapeError(f"tap {tap} appears in two computation modes")
            seen.add(tap)
        total += mode.num_taps
    if total != spec.num_kernel_taps:
        raise ShapeError(
            f"modes cover {total} taps, kernel has {spec.num_kernel_taps}"
        )
