"""Tests for the area-efficient fold (Eq. 2)."""

import numpy as np
import pytest

import repro.core.fold as fold_module
from repro.core.fold import (
    choose_fold,
    choose_fold_batch,
    fold_sct,
    resolve_fold,
    resolve_fold_batch,
    unfold_sct,
)
from repro.core.mapping import build_sct
from repro.deconv.shapes import DeconvSpec
from repro.deconv.modes import decompose_modes
from repro.errors import MappingError, ParameterError
from tests.conftest import SMALL_SPECS, random_operands


class TestChooseFold:
    def test_gan_kernels_unfolded(self):
        spec = DeconvSpec(8, 8, 4, 5, 5, 4, stride=2, padding=2, output_padding=1)
        assert choose_fold(spec) == 1

    def test_fcn2_folds_to_128(self):
        """The paper: 256 taps -> 128 physical SCs via fold 2."""
        spec = DeconvSpec(70, 70, 21, 16, 16, 21, stride=8, padding=0)
        assert choose_fold(spec, max_sub_crossbars=128) == 2

    def test_tight_budget_folds_more(self):
        spec = DeconvSpec(70, 70, 21, 16, 16, 21, stride=8, padding=0)
        assert choose_fold(spec, max_sub_crossbars=32) == 8

    def test_fold_power_of_two(self, small_spec):
        fold = choose_fold(small_spec, max_sub_crossbars=3)
        assert fold & (fold - 1) == 0


class TestBatchFoldResolution:
    @pytest.mark.parametrize("budget", (2, 32, 128))
    def test_choose_fold_batch_matches_scalar(self, budget):
        taps = np.array([spec.num_kernel_taps for spec in SMALL_SPECS])
        batch = choose_fold_batch(taps, max_sub_crossbars=budget)
        expected = [choose_fold(spec, max_sub_crossbars=budget) for spec in SMALL_SPECS]
        assert batch.tolist() == expected

    def test_resolve_fold_batch_mixed_auto_and_explicit(self):
        spec = DeconvSpec(70, 70, 21, 16, 16, 21, stride=8, padding=0)
        taps = np.array([spec.num_kernel_taps] * 3)
        batch = resolve_fold_batch(taps, ["auto", 4, 1], max_sub_crossbars=128)
        assert batch.tolist() == [
            resolve_fold(spec, "auto", 128),
            resolve_fold(spec, 4, 128),
            resolve_fold(spec, 1, 128),
        ]

    def test_resolve_fold_batch_rejects_invalid_entries(self):
        taps = np.array([16])
        for bad in (0, -1, 2.5, "half", True, False):
            with pytest.raises(ParameterError):
                resolve_fold_batch(taps, [bad])

    def test_resolve_fold_batch_rejects_length_mismatch(self):
        with pytest.raises(ParameterError):
            resolve_fold_batch(np.array([16, 25]), ["auto"])


class TestFoldGeometry:
    def test_physical_count(self, small_spec):
        _, w = random_operands(small_spec)
        sct = build_sct(w, small_spec)
        folded = fold_sct(sct, 2)
        assert folded.num_physical_scs == -(-small_spec.num_kernel_taps // 2)
        assert folded.rows_per_sc == 2 * small_spec.in_channels

    def test_fold1_is_identity_layout(self, small_spec):
        _, w = random_operands(small_spec)
        sct = build_sct(w, small_spec)
        folded = fold_sct(sct, 1)
        assert folded.num_physical_scs == sct.data.shape[2]
        np.testing.assert_array_equal(unfold_sct(folded).data, sct.data)

    def test_round_trip(self, small_spec):
        _, w = random_operands(small_spec)
        sct = build_sct(w, small_spec)
        for fold in (1, 2, 4):
            np.testing.assert_array_equal(unfold_sct(fold_sct(sct, fold)).data, sct.data)

    def test_every_tap_stored_once(self, small_spec):
        _, w = random_operands(small_spec)
        folded = fold_sct(build_sct(w, small_spec), 2)
        taps = [t for slots in folded.tap_slots for t in slots if t is not None]
        assert sorted(taps) == list(range(small_spec.num_kernel_taps))

    def test_slot_rows_hold_tap_weights(self, small_spec):
        """Eq. 2 layout: slot f of SC n occupies rows [f*C, (f+1)*C)."""
        _, w = random_operands(small_spec)
        sct = build_sct(w, small_spec)
        folded = fold_sct(sct, 2)
        c = small_spec.in_channels
        for n, slots in enumerate(folded.tap_slots):
            for f, tap in enumerate(slots):
                if tap is None:
                    continue
                np.testing.assert_array_equal(
                    folded.data[f * c : (f + 1) * c, :, n], sct.data[:, :, tap]
                )

    def test_mode_major_grouping(self):
        """Folded partners come from the same computation mode when the
        mode sizes allow (keeps bitline-sharing groups intact)."""
        from repro.deconv.modes import mode_of_tap

        spec = DeconvSpec(4, 4, 2, 16, 16, 2, stride=8, padding=0)
        _, w = random_operands(spec)
        folded = fold_sct(build_sct(w, spec), 2)
        kw_count = spec.kernel_width
        same_mode = 0
        for slots in folded.tap_slots:
            live = [t for t in slots if t is not None]
            if len(live) == 2:
                modes = {mode_of_tap(*divmod(t, kw_count), spec) for t in live}
                same_mode += len(modes) == 1
        # K=16, s=8: every mode has exactly 4 taps -> all pairs intra-mode.
        assert same_mode == len(folded.tap_slots)


def test_a_decomposition_that_loses_taps_cannot_fold(monkeypatch):
    spec = DeconvSpec(4, 4, 1, 3, 3, 1, stride=2, padding=1)
    modes = decompose_modes(spec)
    monkeypatch.setattr(fold_module, "decompose_modes", lambda spec: modes[1:])
    with pytest.raises(MappingError, match="does not partition the taps"):
        fold_module.fold_tap_slots(spec, 2)
