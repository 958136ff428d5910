"""Design-registry behavior: registration, aliases, dispatch, errors."""

import pytest

from repro.api.registry import (
    available_designs,
    baseline_design,
    build_design,
    design_entries,
    get_design,
    register_design,
    resolve_design,
    unregister_design,
)
from repro.arch.tech import default_tech
from repro.deconv.shapes import DeconvSpec
from repro.designs.zero_padding_design import ZeroPaddingDesign
from repro.errors import (
    DuplicateDesignError,
    ParameterError,
    RegistryError,
    UnknownDesignError,
)

SPEC = DeconvSpec(4, 4, 3, 4, 4, 2, stride=2, padding=1)


class TestBuiltins:
    def test_registration_order_is_presentation_order(self):
        assert available_designs() == ("zero-padding", "padding-free", "RED")

    def test_baseline_is_zero_padding(self):
        assert baseline_design() == "zero-padding"

    def test_entries_expose_capabilities(self):
        by_name = {entry.name: entry for entry in design_entries()}
        assert by_name["RED"].accepts_fold
        assert by_name["RED"].supports_trace
        assert not by_name["zero-padding"].accepts_fold
        assert by_name["zero-padding"].baseline

    def test_builtins_register_perf_batch_hooks(self):
        """Every built-in design ships a vectorized perf-input hook."""
        from repro.arch.metrics_batch import PerfInputBatch
        from repro.arch.tech import default_tech
        from repro.deconv.shapes import DeconvSpec, SpecArrays

        spec = DeconvSpec(4, 4, 3, 4, 4, 2, stride=2, padding=1)
        arrays = SpecArrays.from_specs([spec])
        for entry in design_entries():
            assert entry.perf_batch is not None
            batch = entry.perf_batch(arrays, ["auto"], default_tech(), ["layer"])
            assert isinstance(batch, PerfInputBatch)
            assert batch.layers == ("layer",)
            assert batch.designs == (entry.name,)

    @pytest.mark.parametrize(
        "alias, canonical",
        [
            ("zp", "zero-padding"),
            ("zero_padding", "zero-padding"),
            ("pf", "padding-free"),
            ("red", "RED"),
            ("RED", "RED"),
            ("zero-padding", "zero-padding"),
        ],
    )
    def test_alias_resolution(self, alias, canonical):
        assert resolve_design(alias) == canonical

    def test_build_design_dispatch(self):
        for name in available_designs():
            design = build_design(name, SPEC, default_tech())
            assert design.name == name

    def test_build_via_alias(self):
        assert build_design("red", SPEC).name == "RED"

    def test_fold_forwarded_to_fold_aware_designs(self):
        assert build_design("RED", SPEC, fold=2).fold == 2
        # Designs without the parameter silently ignore it.
        assert build_design("zp", SPEC, fold=2).name == "zero-padding"


class TestErrors:
    def test_unknown_design(self):
        with pytest.raises(UnknownDesignError, match="systolic"):
            resolve_design("systolic")

    def test_unknown_design_is_a_key_error(self):
        # Pre-registry callers caught KeyError from the hard-coded dispatch.
        with pytest.raises(KeyError):
            build_design("systolic", SPEC)

    def test_unknown_design_lists_choices(self):
        with pytest.raises(RegistryError, match="zero-padding"):
            get_design("nope")

    def test_duplicate_name_rejected(self):
        with pytest.raises(DuplicateDesignError, match="RED"):
            register_design("RED")(lambda spec, tech: None)

    def test_duplicate_alias_rejected(self):
        with pytest.raises(DuplicateDesignError):
            register_design("fresh-name", aliases=("zp",))(lambda spec, tech: None)

    def test_empty_name_rejected(self):
        with pytest.raises(ParameterError):
            register_design("")

    def test_second_baseline_rejected(self):
        # There is exactly one normalization reference; a silent second
        # baseline would leave every figure normalizing against the
        # wrong design.
        with pytest.raises(DuplicateDesignError, match="baseline"):
            register_design("usurper", baseline=True)(lambda spec, tech: None)
        with pytest.raises(UnknownDesignError):
            resolve_design("usurper")

    def test_alias_clash_leaves_registry_unchanged(self):
        before = available_designs()
        with pytest.raises(DuplicateDesignError):
            register_design("fresh-name", aliases=("red",))(lambda spec, tech: None)
        assert available_designs() == before
        with pytest.raises(UnknownDesignError):
            resolve_design("fresh-name")


class TestUserRegistration:
    def test_register_design_from_user_module(self):
        """The documented fourth-design flow: decorate a design class."""

        @register_design("toy", aliases=("toy-design",), description="test-only")
        class ToyDesign(ZeroPaddingDesign):
            name = "toy"

        try:
            assert "toy" in available_designs()
            assert resolve_design("TOY-DESIGN") == "toy"
            design = build_design("toy", SPEC)
            assert isinstance(design, ToyDesign)
            assert design.evaluate("L").layer == "L"
        finally:
            unregister_design("toy")
        assert "toy" not in available_designs()
        with pytest.raises(UnknownDesignError):
            resolve_design("toy-design")

    def test_registered_design_flows_through_requests(self):
        from repro.api.schema import EvaluationRequest
        from repro.api.service import RedService

        @register_design("toy2")
        class Toy2Design(ZeroPaddingDesign):
            name = "toy2"

        try:
            result = RedService().evaluate(
                EvaluationRequest(spec=SPEC, designs=("toy2", "RED"))
            )
            assert result.designs == ("toy2", "RED")
            assert result.metrics[0].design == "toy2"
        finally:
            unregister_design("toy2")


def test_no_registered_baseline_is_an_unknown_design(monkeypatch):
    import repro.api.registry as registry

    without = {
        name: entry for name, entry in registry._REGISTRY.items() if not entry.baseline
    }
    monkeypatch.setattr(registry, "_REGISTRY", without)
    with pytest.raises(UnknownDesignError, match="no baseline design is registered"):
        baseline_design()
