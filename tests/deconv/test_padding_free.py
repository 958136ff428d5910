"""Tests for Algorithm 2 (padding-free deconvolution)."""

import numpy as np
from hypothesis import given, settings

from repro.deconv.padding_free import crop_to_output, full_overlap_shape, overlap_add
from repro.deconv.reference import conv_transpose2d
from repro.deconv.shapes import DeconvSpec
from tests.conftest import deconv_specs, random_operands


def pixel_products(x, w):
    """Step (b): ``[ih, iw, kh, kw, m] = sum_c x[ih, iw, c] * w[kh, kw, c, m]``."""
    return np.einsum("yxc,ijcm->yxijm", x, w)


def algorithm2(x, w, spec):
    return crop_to_output(overlap_add(pixel_products(x, w), spec), spec)


class TestAlgorithm2:
    def test_matches_reference(self, small_spec):
        x, w = random_operands(small_spec)
        np.testing.assert_allclose(
            algorithm2(x, w, small_spec),
            conv_transpose2d(x, w, small_spec),
            atol=1e-10,
        )

    @given(deconv_specs())
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_property(self, spec):
        x, w = random_operands(spec, seed=5)
        np.testing.assert_allclose(
            algorithm2(x, w, spec), conv_transpose2d(x, w, spec), atol=1e-10
        )


class TestIntermediates:

    def test_full_canvas_shape(self, small_spec):
        fh, fw = full_overlap_shape(small_spec)
        assert fh == (small_spec.input_height - 1) * small_spec.stride + small_spec.kernel_height
        assert fw == (small_spec.input_width - 1) * small_spec.stride + small_spec.kernel_width

    def test_overlap_add_conserves_sum(self, small_spec):
        """Overlap-add moves values, never creates or destroys them."""
        x, w = random_operands(small_spec)
        products = pixel_products(x, w)
        full = overlap_add(products, small_spec)
        np.testing.assert_allclose(full.sum(), products.sum(), rtol=1e-9)

    def test_crop_removes_padding_border(self):
        spec = DeconvSpec(3, 3, 1, 4, 4, 1, stride=2, padding=1)
        full = np.arange(64.0).reshape(8, 8, 1)
        cropped = crop_to_output(full, spec)
        assert cropped.shape == spec.output_shape
        np.testing.assert_array_equal(cropped[0, 0], full[1, 1])

    def test_crop_zero_extends_for_output_padding(self):
        spec = DeconvSpec(2, 2, 1, 2, 2, 1, stride=2, padding=0, output_padding=1)
        fh, fw = full_overlap_shape(spec)
        assert (fh, fw) == (4, 4)
        full = np.ones((fh, fw, 1))
        cropped = crop_to_output(full, spec)
        assert cropped.shape == (5, 5, 1)
        assert cropped[4, 4, 0] == 0.0
