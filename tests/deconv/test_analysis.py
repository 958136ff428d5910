"""Tests for the zero-redundancy analytics behind Fig. 4."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deconv.analysis import (
    padded_zero_fraction,
    redundancy_vs_stride,
    useful_mac_count,
    useful_mac_count_batch,
)
from repro.deconv.shapes import DeconvSpec, SpecArrays
from repro.errors import ParameterError
from tests.conftest import deconv_specs


class TestPaddedZeroFraction:
    def test_sngan_stride2_is_86_8_percent(self):
        """The headline Fig. 4 value: 1 - 16/121 = 86.78%."""
        spec = DeconvSpec(4, 4, 1, 4, 4, 1, stride=2, padding=1)
        assert padded_zero_fraction(spec) == pytest.approx(1 - 16 / 121, abs=1e-12)

    def test_no_insertion_no_border_is_zero(self):
        spec = DeconvSpec(4, 4, 1, 1, 1, 1, stride=1, padding=0)
        assert padded_zero_fraction(spec) == 0.0

    def test_increases_with_stride(self):
        fractions = [
            padded_zero_fraction(DeconvSpec(4, 4, 1, 4, 4, 1, stride=s, padding=1))
            for s in (1, 2, 4, 8)
        ]
        assert fractions == sorted(fractions)
        assert fractions[-1] > 0.97


class TestMacCounts:

    def test_useful_matches_brute_force(self, small_spec):
        # Scatter definition: input pixel (ih, iw) times tap (kh, kw)
        # lands on output (s*ih + kh - p, s*iw + kw - p) when in bounds.
        spec = small_spec
        s, p = spec.stride, spec.padding
        brute = sum(
            0 <= s * ih + kh - p < spec.output_height
            and 0 <= s * iw + kw - p < spec.output_width
            for ih in range(spec.input_height)
            for iw in range(spec.input_width)
            for kh in range(spec.kernel_height)
            for kw in range(spec.kernel_width)
        ) * spec.in_channels * spec.out_channels
        assert useful_mac_count(spec) == brute

    @given(deconv_specs())
    @settings(max_examples=40, deadline=None)
    def test_useful_never_exceeds_dense(self, spec):
        # The zero-padding design schedules OH*OW*KH*KW*C*M MACs.
        dense = (
            spec.num_output_pixels
            * spec.num_kernel_taps
            * spec.in_channels
            * spec.out_channels
        )
        assert 0 <= useful_mac_count(spec) <= dense

    @given(deconv_specs())
    @settings(max_examples=40, deadline=None)
    def test_useful_bounded_by_scatter_volume(self, spec):
        """Each (input pixel, tap) pair scatters at most once."""
        ceiling = (
            spec.num_input_pixels
            * spec.num_kernel_taps
            * spec.in_channels
            * spec.out_channels
        )
        assert useful_mac_count(spec) <= ceiling

    def test_batch_count_matches_scalar_over_the_zoo(self):
        from tests.conftest import SMALL_SPECS

        arrays = SpecArrays.from_specs(SMALL_SPECS)
        batch = useful_mac_count_batch(arrays)
        assert batch.tolist() == [useful_mac_count(s) for s in SMALL_SPECS]

    @given(st.lists(deconv_specs(max_input=6, max_kernel=12, max_stride=9),
                    min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_batch_count_matches_scalar_property(self, specs):
        batch = useful_mac_count_batch(SpecArrays.from_specs(specs))
        assert batch.tolist() == [useful_mac_count(s) for s in specs]

    def test_batch_count_empty_input(self):
        assert useful_mac_count_batch(SpecArrays.from_specs([])).tolist() == []

    def test_batch_count_fcn_scale(self):
        """Closed-form interval arithmetic at FCN-32s scale (no loops)."""
        spec = DeconvSpec(16, 16, 21, 64, 64, 21, stride=32, padding=16)
        batch = useful_mac_count_batch(SpecArrays.from_specs([spec]))
        assert batch.tolist() == [useful_mac_count(spec)]


class TestRedundancyCurves:
    def test_sngan_curve_endpoint_values(self):
        curve = dict(redundancy_vs_stride(4, kernel_rule="fixed", kernel_size=4))
        assert curve[2] == pytest.approx(0.8678, abs=5e-4)
        assert curve[32] > 0.99

    def test_fcn_curve_reaches_99_8_percent(self):
        curve = dict(redundancy_vs_stride(16, kernel_rule="fcn"))
        assert curve[32] >= 0.998

    def test_curves_monotone_in_stride_beyond_one(self):
        for rule in ("fixed", "fcn"):
            curve = redundancy_vs_stride(8, kernel_rule=rule)
            values = [v for s, v in curve if s >= 2]
            assert values == sorted(values)

    def test_unknown_rule_raises(self):
        with pytest.raises(ParameterError):
            redundancy_vs_stride(4, kernel_rule="nope")

    def test_custom_strides(self):
        curve = redundancy_vs_stride(4, strides=(2, 3), kernel_rule="fixed")
        assert [s for s, _ in curve] == [2, 3]
