"""Area-efficient fold (paper Eq. 2, Sec. III-C).

When ``KH * KW`` sub-crossbars are too many (FCN stride-8 needs 256), RED
halves the SC count by stacking ``fold`` taps into one physical SC of
``fold * C`` rows and interleaving their input vectors over ``fold``
cycles:

    Cycle 1:  In[0:C]   = I_even,   In[C:2C]  = 0
    Cycle 2:  In[0:C]   = 0,        In[C:2C]  = I_odd            (Eq. 2)

Because only one row segment is live per cycle, the folded SC's output is
exactly the live tap's contribution; the existing accumulators merge the
``fold`` cycles.  The paper's configuration: 128 physical SCs complete the
64 stride-8 computation modes in two cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.mapping import SubCrossbarTensor
from repro.deconv.modes import decompose_modes
from repro.errors import MappingError, ParameterError
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class FoldedSCT:
    """A folded sub-crossbar tensor.

    Attributes:
        data: array ``(fold * C, M, num_folded_scs)``; physical SC ``n``
            stacks ``fold`` original taps, tap slot ``f`` occupying rows
            ``[f*C, (f+1)*C)``.
        tap_slots: ``tap_slots[n][f]`` is the flat tap index stored in
            slot ``f`` of physical SC ``n`` (or ``None`` padding).
        fold: interleave factor (1 = unfolded).
        base: the original (unfolded) tensor's spec carrier.
    """

    data: np.ndarray
    tap_slots: tuple[tuple[int | None, ...], ...]
    fold: int
    base: SubCrossbarTensor

    @property
    def num_physical_scs(self) -> int:
        """Physical sub-crossbars after folding."""
        return self.data.shape[2]

    @property
    def rows_per_sc(self) -> int:
        """Rows per physical SC, ``fold * C``."""
        return self.data.shape[0]


def choose_fold(spec, max_sub_crossbars: int = 128) -> int:
    """Smallest power-of-two fold keeping the SC count within budget.

    The paper folds FCN stride-8 (256 taps) by 2 into 128 physical SCs;
    GAN kernels (16-25 taps) stay unfolded.
    """
    check_positive_int(max_sub_crossbars, "max_sub_crossbars")
    taps = spec.num_kernel_taps
    fold = 1
    while -(-taps // fold) > max_sub_crossbars:
        fold *= 2
    return fold


def _explicit_fold(fold) -> int:
    """``fold`` if it is an int >= 1, else :class:`ParameterError`.

    ``bool`` is an ``int`` subclass but not a fold: accepting ``True``
    as fold 1 would file one result under two store keys.
    """
    if isinstance(fold, int) and not isinstance(fold, bool) and fold >= 1:
        return fold
    raise ParameterError(f"fold must be 'auto' or an int >= 1, got {fold!r}")


def resolve_fold(spec, fold: int | str, max_sub_crossbars: int = 128) -> int:
    """The single ``'auto'``/int fold-resolution rule.

    Shared by :class:`~repro.core.red_design.REDDesign`, the batch engine
    and the parallel runner so the accepted values can never diverge.
    """
    if fold == "auto":
        return choose_fold(spec, max_sub_crossbars)
    return _explicit_fold(fold)


def choose_fold_batch(num_taps, max_sub_crossbars: int = 128) -> np.ndarray:
    """Vectorized :func:`choose_fold`: one fold per tap count.

    Same doubling rule — smallest power of two keeping
    ``ceil(taps / fold) <= max_sub_crossbars`` — applied to an ``int64``
    array of ``KH * KW`` values at once.
    """
    check_positive_int(max_sub_crossbars, "max_sub_crossbars")
    taps = np.asarray(num_taps, dtype=np.int64)
    fold = np.ones_like(taps)
    while True:
        over = -(-taps // fold) > max_sub_crossbars
        if not over.any():
            return fold
        fold[over] *= 2


def resolve_fold_batch(num_taps, folds, max_sub_crossbars: int = 128) -> np.ndarray:
    """Vectorized :func:`resolve_fold` over per-job ``'auto'``/int folds.

    ``folds`` is a sequence aligned with ``num_taps``; every entry must
    be ``'auto'`` or an int >= 1 (the scalar rule, so no bools),
    otherwise :class:`~repro.errors.ParameterError` is raised exactly as
    the scalar path would.
    """
    taps = np.asarray(num_taps, dtype=np.int64)
    if taps.shape[0] != len(folds):
        raise ParameterError(
            f"got {taps.shape[0]} tap counts but {len(folds)} folds"
        )
    resolved = np.empty_like(taps)
    auto = np.zeros(taps.shape[0], dtype=bool)
    for index, fold in enumerate(folds):
        if fold == "auto":
            auto[index] = True
        else:
            resolved[index] = _explicit_fold(fold)
    if auto.any():
        resolved[auto] = choose_fold_batch(taps[auto], max_sub_crossbars)
    return resolved


def fold_tap_slots(spec, fold: int) -> tuple[tuple[int | None, ...], ...]:
    """Eq. 2 tap-to-slot geometry: ``result[n][f]`` is the flat tap index
    stored in slot ``f`` of physical SC ``n`` (or ``None`` padding).

    Taps are grouped mode-by-mode so bitline-sharing groups stay intact:
    folding merges taps that would be summed anyway.  Shared by
    :func:`fold_sct` (which adds the weight data) and the cycle engine's
    schedule compiler (which only needs the geometry).
    """
    check_positive_int(fold, "fold")
    taps = spec.num_kernel_taps
    # Mode-major tap order keeps folded partners within one summation group.
    ordered: list[int] = []
    for mode in decompose_modes(spec):
        ordered.extend(kh * spec.kernel_width + kw for kh, kw in mode.taps)
    if sorted(ordered) != list(range(taps)):
        raise MappingError("mode decomposition does not partition the taps")
    num_phys = -(-taps // fold)
    return tuple(
        tuple(
            ordered[n * fold + f] if n * fold + f < taps else None
            for f in range(fold)
        )
        for n in range(num_phys)
    )


def fold_sct(sct: SubCrossbarTensor, fold: int) -> FoldedSCT:
    """Stack taps ``fold``-deep into physical SCs (Eq. 2 geometry)."""
    tap_slots = fold_tap_slots(sct.spec, fold)
    c, m, _ = sct.data.shape
    data = np.zeros((fold * c, m, len(tap_slots)), dtype=sct.data.dtype)
    for n, slots in enumerate(tap_slots):
        for f, tap in enumerate(slots):
            if tap is not None:
                data[f * c : (f + 1) * c, :, n] = sct.data[:, :, tap]
    return FoldedSCT(data=data, tap_slots=tap_slots, fold=fold, base=sct)


def unfold_sct(folded: FoldedSCT) -> SubCrossbarTensor:
    """Recover the original SCT from a folded tensor (exact inverse)."""
    base = folded.base
    c = base.spec.in_channels
    data = np.zeros_like(base.data)
    for n, slots in enumerate(folded.tap_slots):
        for f, tap in enumerate(slots):
            if tap is not None:
                data[:, :, tap] = folded.data[f * c : (f + 1) * c, :, n]
    return SubCrossbarTensor(data=data, spec=base.spec)
