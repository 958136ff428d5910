"""Negative controls: breaking an assumption must break the result.

Equality tests alone can pass vacuously (e.g. if both sides were zero);
these controls verify the mechanisms are load-bearing by checking that
deliberate corruption produces detectable disagreement.
"""

import numpy as np
import pytest

from repro.core.mapping import build_sct
from repro.deconv.reference import conv2d_valid, conv_transpose2d, rotate_kernel_180
from repro.deconv.shapes import DeconvSpec
from repro.deconv.zero_padding import zero_insert_input
from tests.conftest import random_operands


@pytest.fixture
def spec():
    # Deliberately asymmetric kernel so rotation matters.
    return DeconvSpec(4, 3, 3, 3, 2, 4, stride=2, padding=1)


class TestRotationIsLoadBearing:
    def test_algorithm1_without_rotation_differs(self, spec):
        """Zero-padding + UNrotated kernel must not equal the reference."""
        x, w = random_operands(spec)
        padded = zero_insert_input(x, spec)
        wrong = conv2d_valid(padded, w)  # missing rot180
        right = conv_transpose2d(x, w, spec)
        assert not np.allclose(wrong, right)

    def test_rotation_matters_for_asymmetric_kernels(self, spec):
        _, w = random_operands(spec)
        assert not np.array_equal(rotate_kernel_180(w), w)


class TestMappingIsLoadBearing:
    def test_shuffled_sct_breaks_equality(self, spec):
        """Permuting sub-crossbars (violating Eq. 1) corrupts the output."""
        from repro.core.red_design import REDDesign

        x, w = random_operands(spec)
        sct = build_sct(w, spec)
        shuffled = sct.data[:, :, ::-1].copy()  # reverse tap order
        w_wrong = (
            shuffled.reshape(
                spec.in_channels, spec.out_channels,
                spec.kernel_height, spec.kernel_width,
            ).transpose(2, 3, 0, 1)
        )
        right = REDDesign(spec).run_functional(x, w).output
        wrong = REDDesign(spec).run_functional(x, np.ascontiguousarray(w_wrong)).output
        assert not np.allclose(wrong, right)

    def test_wrong_stride_changes_everything(self):
        base = DeconvSpec(4, 4, 2, 4, 4, 2, stride=2, padding=1)
        other = DeconvSpec(4, 4, 2, 4, 4, 2, stride=1, padding=1)
        x, w = random_operands(base)
        a = conv_transpose2d(x, w, base)
        b = conv_transpose2d(x, w, other)
        assert a.shape != b.shape


class TestGatingIsLoadBearing:
    def test_padded_vectors_really_sparse(self, spec, rng):
        """If zero insertion were skipped, the redundancy would vanish."""
        from repro.deconv.zero_padding import padded_input_vectors

        x = np.abs(rng.standard_normal(spec.input_shape)) + 1.0
        vectors = padded_input_vectors(x, spec)
        sparsity = 1.0 - np.count_nonzero(vectors) / vectors.size
        assert sparsity > 0.5  # the waste RED exists to remove

    def test_quantized_path_not_trivially_zero(self, spec):
        from repro.core.red_design import REDDesign
        from tests.conftest import integer_operands

        x, w = integer_operands(spec)
        out = REDDesign(spec).run_quantized(x, w).output
        assert np.abs(out).sum() > 0


class TestCalibrationIsLoadBearing:
    def test_zeroing_the_quadratic_term_breaks_pf_band(self):
        """The padding-free array-energy band depends on the quadratic
        wordline term; removing it must take the ratio out of band."""
        from repro.arch.tech import default_tech
        from repro.designs.padding_free_design import PaddingFreeDesign
        from repro.designs.zero_padding_design import ZeroPaddingDesign
        from repro.workloads.specs import get_layer

        layer = get_layer("GAN_Deconv1")
        flat = default_tech().with_overrides(e_wl_quad=0.0)
        pf = PaddingFreeDesign(layer.spec, flat).evaluate(layer.name)
        zp = ZeroPaddingDesign(layer.spec, flat).evaluate(layer.name)
        ratio = pf.energy.array / zp.energy.array
        assert ratio < 4.0  # out of the published 4.48-7.53 band

    def test_ungated_wordlines_break_red_similarity(self):
        """If zero-padding paid wordline energy on every selected row, its
        array energy would far exceed RED's (cf. the wordline-gating note
        in :func:`repro.arch.metrics.energy_breakdown`)."""
        from dataclasses import replace

        from repro.arch.metrics import energy_breakdown
        from repro.core.red_design import REDDesign
        from repro.designs.zero_padding_design import ZeroPaddingDesign
        from repro.workloads.specs import get_layer

        layer = get_layer("GAN_Deconv1")
        zp_perf = ZeroPaddingDesign(layer.spec).perf_input(layer.name)
        ungated = replace(
            zp_perf,
            live_row_cycles_total=float(
                zp_perf.rows_selected_per_cycle * zp_perf.cycles
            ),
        )
        red = REDDesign(layer.spec).evaluate(layer.name)
        zp_ungated = energy_breakdown(ungated)
        assert zp_ungated.array / red.energy.array > 2.0
