"""The operand contract every design inherits from ``DeconvDesign``."""

import numpy as np
import pytest

from repro.core.red_design import REDDesign
from repro.deconv.shapes import DeconvSpec
from repro.designs.padding_free_design import PaddingFreeDesign
from repro.designs.zero_padding_design import ZeroPaddingDesign
from repro.errors import ShapeError
from tests.conftest import integer_operands, random_operands

SPEC = DeconvSpec(4, 4, 3, 4, 4, 2, stride=2, padding=1)

pytestmark = pytest.mark.parametrize(
    "design_cls", [ZeroPaddingDesign, PaddingFreeDesign, REDDesign]
)


def test_functional_rejects_a_kernel_of_another_shape(design_cls):
    x, w = random_operands(SPEC)
    with pytest.raises(ShapeError, match="kernel shape"):
        design_cls(SPEC).run_functional(x, w[:, :, :, :1])


def test_quantized_rejects_float_activations(design_cls):
    x, w = integer_operands(SPEC)
    with pytest.raises(ShapeError, match="integer activations"):
        design_cls(SPEC).run_quantized(x.astype(np.float64), w)


def test_quantized_rejects_float_weights(design_cls):
    x, w = integer_operands(SPEC)
    with pytest.raises(ShapeError, match="integer weights"):
        design_cls(SPEC).run_quantized(x, w.astype(np.float64))


def test_repr_names_the_design_class_and_its_spec(design_cls):
    text = repr(design_cls(SPEC))
    assert text == f"{design_cls.__name__}(spec={SPEC.describe()!r})"
