"""Zero-skipping data flow (paper Fig. 5c).

RED never feeds inserted zeros: each cycle it gathers the handful of live
input pixels that an ``stride x stride`` block of output pixels depends on
and routes them to the sub-crossbars.  Output pixel ``(oy, ox)`` of phase
``(oy mod s, ox mod s)`` draws from tap ``(kh, kw)`` the input pixel
``ih = (oy + p - kh) / s`` (when integral and in range) — every tap of a
mode is live for its phase, taps of other modes idle, so all ``stride^2``
modes of a block execute concurrently and a layer finishes in

    ``ceil(OH / s) * ceil(OW / s)``

rounds instead of the zero-padding design's ``OH * OW``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.deconv.modes import ComputationMode, decompose_modes
from repro.deconv.shapes import DeconvSpec
from repro.errors import ScheduleError


@dataclass(frozen=True)
class CycleSlot:
    """One compute round of the zero-skipping schedule.

    Attributes:
        block: output block index ``(by, bx)``; the block covers output
            pixels ``[by*s, by*s + s) x [bx*s, bx*s + s)``.
        assignments: mapping tap ``(kh, kw)`` -> live input pixel
            ``(ih, iw)``.  Taps absent from the dict receive no (i.e. zero)
            input this round — they fall outside the input at the borders.
        outputs: produced output pixels as ``(oy, ox, mode_index)``.
    """

    block: tuple[int, int]
    assignments: dict[tuple[int, int], tuple[int, int]]
    outputs: tuple[tuple[int, int, int], ...]

    @property
    def distinct_inputs(self) -> set[tuple[int, int]]:
        """Distinct input pixels fetched this round (buffer reads)."""
        return set(self.assignments.values())


def red_cycle_count(spec: DeconvSpec, fold: int = 1) -> int:
    """Closed-form RED round count: ``fold * ceil(OH/s) * ceil(OW/s)``."""
    if fold < 1:
        raise ScheduleError(f"fold must be >= 1, got {fold}")
    s = spec.stride
    blocks_y = -(-spec.output_height // s)
    blocks_x = -(-spec.output_width // s)
    return fold * blocks_y * blocks_x


class ZeroSkippingSchedule:
    """Generates the per-cycle input/output assignments of Fig. 5c."""

    def __init__(self, spec: DeconvSpec) -> None:
        self.spec = spec
        self.modes: list[ComputationMode] = decompose_modes(spec)

    @property
    def num_blocks(self) -> tuple[int, int]:
        """Output block grid ``(ceil(OH/s), ceil(OW/s))``."""
        s = self.spec.stride
        return (-(-self.spec.output_height // s), -(-self.spec.output_width // s))

    def cycle(self, by: int, bx: int) -> CycleSlot:
        """Build the :class:`CycleSlot` for output block ``(by, bx)``."""
        spec = self.spec
        s, p = spec.stride, spec.padding
        blocks_y, blocks_x = self.num_blocks
        if not (0 <= by < blocks_y and 0 <= bx < blocks_x):
            raise ScheduleError(f"block ({by}, {bx}) outside grid {self.num_blocks}")
        assignments: dict[tuple[int, int], tuple[int, int]] = {}
        outputs: list[tuple[int, int, int]] = []
        for mode_index, mode in enumerate(self.modes):
            oy = by * s + mode.phase_y
            ox = bx * s + mode.phase_x
            if oy >= spec.output_height or ox >= spec.output_width:
                continue
            # Empty modes (kernel smaller than stride) still own their
            # output pixels — the value is identically zero but the pixel
            # must be written once.
            for kh, kw in mode.taps:
                num_y = oy + p - kh
                num_x = ox + p - kw
                # Mode membership guarantees divisibility; range may fail
                # at the borders.
                ih, iw = num_y // s, num_x // s
                if 0 <= ih < spec.input_height and 0 <= iw < spec.input_width:
                    if (kh, kw) in assignments:
                        raise ScheduleError(
                            f"tap ({kh}, {kw}) double-booked in block ({by}, {bx})"
                        )
                    assignments[(kh, kw)] = (ih, iw)
            # The output pixel exists even when every tap was border-
            # clipped (its value is then zero).
            outputs.append((oy, ox, mode_index))
        return CycleSlot(
            block=(by, bx),
            assignments=assignments,
            outputs=tuple(outputs),
        )

    def cycles(self) -> Iterator[CycleSlot]:
        """Iterate all compute rounds in row-major block order."""
        blocks_y, blocks_x = self.num_blocks
        for by in range(blocks_y):
            for bx in range(blocks_x):
                yield self.cycle(by, bx)

    def coverage_check(self) -> None:
        """Raise unless every output pixel is produced exactly once."""
        spec = self.spec
        seen = set()
        for slot in self.cycles():
            for oy, ox, _mode in slot.outputs:
                if (oy, ox) in seen:
                    raise ScheduleError(f"output ({oy}, {ox}) produced twice")
                seen.add((oy, ox))
        expected = spec.num_output_pixels
        if len(seen) != expected:
            raise ScheduleError(
                f"schedule covers {len(seen)} output pixels, expected {expected}"
            )
