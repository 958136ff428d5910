"""Tests for the gold-standard reference implementations."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.deconv.reference import (
    conv2d,
    conv2d_valid,
    conv_transpose2d,
    rotate_kernel_180,
)
from repro.deconv.shapes import DeconvSpec
from repro.errors import ShapeError
from tests.conftest import deconv_specs, random_operands


def brute_force_deconv(x, w, spec):
    """O(everything) scatter loop — the definition, written naively."""
    out = np.zeros(spec.output_shape)
    s, p = spec.stride, spec.padding
    for ih in range(spec.input_height):
        for iw in range(spec.input_width):
            for kh in range(spec.kernel_height):
                for kw in range(spec.kernel_width):
                    oy, ox = s * ih + kh - p, s * iw + kw - p
                    if 0 <= oy < spec.output_height and 0 <= ox < spec.output_width:
                        for c in range(spec.in_channels):
                            out[oy, ox, :] += x[ih, iw, c] * w[kh, kw, c, :]
    return out


class TestConvTranspose2d:
    def test_matches_brute_force(self, small_spec):
        x, w = random_operands(small_spec)
        fast = conv_transpose2d(x, w, small_spec)
        slow = brute_force_deconv(x, w, small_spec)
        np.testing.assert_allclose(fast, slow, atol=1e-10)

    @given(deconv_specs(max_input=4, max_kernel=4, max_stride=3, max_channels=3))
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force_property(self, spec):
        x, w = random_operands(spec, seed=7)
        np.testing.assert_allclose(
            conv_transpose2d(x, w, spec), brute_force_deconv(x, w, spec), atol=1e-10
        )

    def test_linearity_in_input(self, small_spec):
        x1, w = random_operands(small_spec, seed=1)
        x2, _ = random_operands(small_spec, seed=2)
        lhs = conv_transpose2d(x1 + 2.0 * x2, w, small_spec)
        rhs = conv_transpose2d(x1, w, small_spec) + 2.0 * conv_transpose2d(
            x2, w, small_spec
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_zero_input_gives_zero_output(self, small_spec):
        _, w = random_operands(small_spec)
        x = np.zeros(small_spec.input_shape)
        assert not conv_transpose2d(x, w, small_spec).any()

    def test_single_pixel_stamps_kernel(self):
        spec = DeconvSpec(1, 1, 1, 3, 3, 1, stride=1, padding=0)
        x = np.ones((1, 1, 1))
        w = np.arange(9.0).reshape(3, 3, 1, 1)
        out = conv_transpose2d(x, w, spec)
        np.testing.assert_allclose(out[:, :, 0], np.arange(9.0).reshape(3, 3))

    def test_rejects_wrong_input_shape(self, small_spec):
        x, w = random_operands(small_spec)
        with pytest.raises(ShapeError):
            conv_transpose2d(x[..., None], w, small_spec)
        with pytest.raises(ShapeError):
            conv_transpose2d(x[:-1] if x.shape[0] > 1 else x.T, w, small_spec)

    def test_rejects_wrong_kernel_shape(self, small_spec):
        x, w = random_operands(small_spec)
        with pytest.raises(ShapeError):
            conv_transpose2d(x, w[..., None], small_spec)
        with pytest.raises(ShapeError, match="kernel shape"):
            conv_transpose2d(x, np.concatenate([w, w], axis=-1), small_spec)


class TestConv2d:
    def test_valid_identity_kernel(self, rng):
        x = rng.normal(size=(5, 5, 3))
        w = np.zeros((1, 1, 3, 3))
        for c in range(3):
            w[0, 0, c, c] = 1.0
        np.testing.assert_allclose(conv2d_valid(x, w), x)

    def test_valid_matches_naive(self, rng):
        x = rng.normal(size=(6, 5, 2))
        w = rng.normal(size=(3, 2, 2, 4))
        out = conv2d_valid(x, w)
        assert out.shape == (4, 4, 4)
        naive = np.zeros((4, 4, 4))
        for oy in range(4):
            for ox in range(4):
                naive[oy, ox] = np.einsum(
                    "ijc,ijcm->m", x[oy : oy + 3, ox : ox + 2], w
                )
        np.testing.assert_allclose(out, naive, atol=1e-10)

    def test_strided_padded(self, rng):
        x = rng.normal(size=(5, 5, 2))
        w = rng.normal(size=(3, 3, 2, 1))
        out = conv2d(x, w, stride=2, padding=1)
        assert out.shape == ((5 + 2 - 3) // 2 + 1, (5 + 2 - 3) // 2 + 1, 1)

    def test_kernel_larger_than_input_raises(self, rng):
        x = rng.normal(size=(2, 2, 1))
        w = rng.normal(size=(3, 3, 1, 1))
        with pytest.raises(ShapeError):
            conv2d_valid(x, w)

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            conv2d_valid(rng.normal(size=(4, 4, 2)), rng.normal(size=(3, 3, 3, 1)))

    def test_operand_ranks_checked(self, rng):
        with pytest.raises(ShapeError, match=r"\(H, W, C\) input"):
            conv2d_valid(rng.normal(size=(4, 4)), rng.normal(size=(3, 3, 1, 1)))
        with pytest.raises(ShapeError, match=r"\(KH, KW, C, M\) kernel"):
            conv2d_valid(rng.normal(size=(4, 4, 1)), rng.normal(size=(3, 3, 1)))


class TestRotate:
    def test_double_rotation_is_identity(self, rng):
        w = rng.normal(size=(3, 4, 2, 5))
        np.testing.assert_array_equal(rotate_kernel_180(rotate_kernel_180(w)), w)

    def test_rotation_flips_corners(self):
        w = np.zeros((2, 2, 1, 1))
        w[0, 0] = 1.0
        assert rotate_kernel_180(w)[1, 1] == 1.0

    def test_rejects_non_4d(self, rng):
        with pytest.raises(ShapeError):
            rotate_kernel_180(rng.normal(size=(3, 3, 2)))
