"""Tests for Algorithm 1 (zero-padding deconvolution)."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.deconv.reference import conv_transpose2d
from repro.deconv.shapes import DeconvSpec
from repro.deconv.zero_padding import (
    padded_input_vectors,
    zero_insert_input,
    zero_padding_deconv,
)
from repro.errors import ShapeError
from tests.conftest import deconv_specs, random_operands


class TestZeroInsert:
    def test_live_pixel_count_preserved(self, small_spec, rng):
        x = rng.normal(size=small_spec.input_shape)
        padded = zero_insert_input(x, small_spec)
        assert np.count_nonzero(padded) == np.count_nonzero(x)

    def test_values_land_on_stride_grid(self, small_spec, rng):
        x = rng.normal(size=small_spec.input_shape) + 10.0  # keep all non-zero
        padded = zero_insert_input(x, small_spec)
        geom = small_spec.padded_geometry()
        s = small_spec.stride
        sub = padded[
            geom.border_top : geom.border_top + geom.stretched_height : s,
            geom.border_left : geom.border_left + geom.stretched_width : s,
        ]
        np.testing.assert_array_equal(sub, x)

    def test_border_is_zero(self, rng):
        spec = DeconvSpec(3, 3, 2, 4, 4, 1, stride=2, padding=1)
        x = rng.normal(size=spec.input_shape) + 5.0
        padded = zero_insert_input(x, spec)
        assert not padded[:2].any()
        assert not padded[:, :2].any()

    def test_sngan_zero_fraction(self):
        spec = DeconvSpec(4, 4, 1, 4, 4, 1, stride=2, padding=1)
        x = np.ones(spec.input_shape)
        padded = zero_insert_input(x, spec)
        assert padded.size == 121
        assert np.count_nonzero(padded) == 16

    def test_rejects_wrong_shape(self, small_spec, rng):
        x = rng.normal(size=small_spec.input_shape)
        with pytest.raises(ShapeError):
            zero_insert_input(x[..., None], small_spec)


class TestAlgorithm1:
    def test_matches_reference(self, small_spec):
        x, w = random_operands(small_spec)
        np.testing.assert_allclose(
            zero_padding_deconv(x, w, small_spec),
            conv_transpose2d(x, w, small_spec),
            atol=1e-10,
        )

    @given(deconv_specs())
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_property(self, spec):
        x, w = random_operands(spec, seed=3)
        np.testing.assert_allclose(
            zero_padding_deconv(x, w, spec), conv_transpose2d(x, w, spec), atol=1e-10
        )


class TestPaddedVectors:
    def test_vector_count_is_output_pixels(self, small_spec, rng):
        x = rng.normal(size=small_spec.input_shape)
        vectors = padded_input_vectors(x, small_spec)
        assert vectors.shape == (
            small_spec.num_output_pixels,
            small_spec.num_kernel_taps * small_spec.in_channels,
        )

    def test_vectors_reproduce_deconv(self, small_spec, rng):
        from repro.deconv.reference import rotate_kernel_180

        x, w = random_operands(small_spec)
        vectors = padded_input_vectors(x, small_spec)
        rotated = rotate_kernel_180(w)
        kh, kw, c, m = rotated.shape
        matrix = rotated.reshape(kh * kw * c, m)
        out = (vectors @ matrix).reshape(small_spec.output_shape)
        np.testing.assert_allclose(
            out, conv_transpose2d(x, w, small_spec), atol=1e-10
        )

    def test_sparsity_matches_mac_redundancy(self, small_spec, rng):
        from repro.deconv.analysis import useful_mac_count

        x = rng.normal(size=small_spec.input_shape) + 10.0  # no accidental zeros
        vectors = padded_input_vectors(x, small_spec)
        measured = 1.0 - np.count_nonzero(vectors) / vectors.size
        redundant = 1.0 - useful_mac_count(small_spec) / (
            small_spec.num_output_pixels
            * small_spec.num_kernel_taps
            * small_spec.in_channels
            * small_spec.out_channels
        )
        assert measured == pytest.approx(redundant, abs=1e-12)
