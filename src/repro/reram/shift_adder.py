"""Shift-and-add accumulation across input bits and weight slices.

The shift adder (paper Fig. 1) recombines partial sums: ADC outputs for
input-bit plane ``b`` are weighted ``2^b``, digit-slice ``d`` outputs are
weighted ``base^d``, and differential (negative) columns subtract.  The
class keeps operation counters so the performance model can charge
shift-add energy from measured activity rather than formulas.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_non_negative_int, check_positive_int


class ShiftAdder:
    """Accumulates weighted partial sums and counts the work done.

    Attributes:
        operations: number of scalar shift-add operations performed.
        accumulations: number of accumulate calls (vector granularity).
    """

    def __init__(self) -> None:
        self.operations = 0
        self.accumulations = 0
        self._acc: np.ndarray | None = None

    def accumulate(self, partial: np.ndarray, shift: int) -> None:
        """Add ``partial << shift`` into the accumulator."""
        check_non_negative_int(shift, "shift")
        term = np.asarray(partial, dtype=np.int64) << shift
        if self._acc is None:
            self._acc = term.copy()
        else:
            self._acc = self._acc + term
        self.operations += int(term.size)
        self.accumulations += 1

    def accumulate_signed(self, pos: np.ndarray, neg: np.ndarray, shift: int) -> None:
        """Differential accumulate: ``(pos - neg) << shift``."""
        diff = np.asarray(pos, dtype=np.int64) - np.asarray(neg, dtype=np.int64)
        self.accumulate(diff, shift)

    @property
    def value(self) -> np.ndarray:
        """Current accumulator contents (zeros-like if nothing accumulated)."""
        if self._acc is None:
            return np.zeros(0, dtype=np.int64)
        return self._acc


def combine_bit_planes(partials: np.ndarray, radix_bits: int = 1) -> np.ndarray:
    """Pure-function shift-add over the leading axis.

    ``partials[k]`` is weighted ``2^(radix_bits * k)``; equivalent to what a
    :class:`ShiftAdder` computes but convenient for vectorized pipelines.
    """
    check_positive_int(radix_bits, "radix_bits")
    partials = np.asarray(partials, dtype=np.int64)
    out = np.zeros(partials.shape[1:], dtype=np.int64)
    for k in range(partials.shape[0]):
        out += partials[k] << (radix_bits * k)
    return out
