"""Round-trip property tests for the versioned request/response schema.

Every schema type must satisfy ``from_dict(to_dict(r)) == r`` — also
after a real ``json.dumps``/``json.loads`` cycle, which is what the CLI
``--json`` path and any cross-process consumer actually do.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.schema import (
    SCHEMA_VERSION,
    CommandPayload,
    ErrorInfo,
    EvaluationRequest,
    EvaluationResult,
    FidelityPoint,
    FidelityRequest,
    FidelityResult,
    NetworkDesignSummary,
    NetworkRequest,
    NetworkResult,
    SweepPoint,
    SweepRequest,
    SweepResult,
    payload_from_dict,
)
from repro.arch.breakdown import (
    AreaBreakdown,
    DesignMetrics,
    EnergyBreakdown,
    LatencyBreakdown,
)
from repro.deconv.shapes import DeconvSpec
from repro.errors import SchemaError, ShapeError
from repro.eval.parallel import CycleStats
from repro.workloads.specs import layer_names

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
finite = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1, max_size=12
)


@st.composite
def specs(draw):
    stride = draw(st.integers(1, 4))
    kernel = draw(st.integers(1, 6))
    padding = draw(st.integers(0, max(kernel - 1, 0)))
    try:
        return DeconvSpec(
            input_height=draw(st.integers(1, 6)),
            input_width=draw(st.integers(1, 6)),
            in_channels=draw(st.integers(1, 4)),
            kernel_height=kernel,
            kernel_width=kernel,
            out_channels=draw(st.integers(1, 4)),
            stride=stride,
            padding=padding,
            output_padding=draw(st.integers(0, stride - 1)),
        )
    except ShapeError:
        # Some sampled combinations produce non-positive outputs.
        return DeconvSpec(4, 4, 2, 3, 3, 2, stride=2, padding=1)


def breakdowns(cls):
    component_names = ("wordline", "bitline", "computation", "decoder", "mux")
    return st.builds(
        cls, **{name: finite for name in component_names}
    )


metrics_values = st.builds(
    DesignMetrics,
    design=names,
    layer=names,
    latency=breakdowns(LatencyBreakdown),
    energy=breakdowns(EnergyBreakdown),
    area=breakdowns(AreaBreakdown),
    cycles=st.integers(0, 10**9),
)

cycle_stats_values = st.builds(
    CycleStats,
    design=names,
    layer=names,
    fold=st.integers(1, 64),
    cycles=st.integers(0, 10**9),
    counters=st.dictionaries(names, st.integers(0, 10**12), max_size=4).map(
        lambda d: tuple(sorted(d.items()))
    ),
)

folds = st.one_of(st.none(), st.just("auto"), st.integers(1, 32))
overrides = st.dictionaries(
    st.sampled_from(("t_adc", "e_mac", "clock_hz", "mux_share")),
    st.one_of(st.integers(1, 8), finite.filter(lambda v: v > 0)),
    max_size=3,
)

evaluation_requests = st.one_of(
    st.builds(
        EvaluationRequest,
        layer=st.sampled_from(layer_names()),
        designs=st.lists(st.sampled_from(("RED", "zp", "padding-free")), max_size=3).map(tuple),
        fold=folds,
        tech_overrides=overrides,
        trace=st.booleans(),
        layer_name=st.one_of(st.just(""), names),
    ),
    st.builds(
        EvaluationRequest,
        spec=specs(),
        fold=folds,
        trace=st.booleans(),
    ),
)


@st.composite
def evaluation_results(draw):
    count = draw(st.integers(1, 3))
    design_names = draw(
        st.lists(names, min_size=count, max_size=count, unique=True)
    )
    traced = draw(st.booleans())
    return EvaluationResult(
        layer=draw(names),
        designs=tuple(design_names),
        metrics=tuple(draw(metrics_values) for _ in range(count)),
        cycle_stats=(
            tuple(
                draw(st.one_of(st.none(), cycle_stats_values))
                for _ in range(count)
            )
            if traced
            else ()
        ),
    )


sweep_requests = st.builds(
    SweepRequest,
    strides=st.lists(st.integers(1, 12), min_size=1, max_size=5).map(tuple),
    input_size=st.integers(1, 16),
    channels=st.integers(1, 64),
    filters=st.integers(1, 64),
    fold=st.one_of(st.just("auto"), st.integers(1, 16)),
    tech_overrides=overrides,
)

error_infos = st.builds(
    ErrorInfo,
    error_type=names,
    message=st.text(max_size=40),
    retryable=st.booleans(),
    source=st.one_of(st.just(""), names),
)

sweep_results = st.builds(
    SweepResult,
    points=st.lists(
        st.builds(
            SweepPoint,
            stride=st.integers(1, 32),
            modes=st.integers(1, 1024),
            cycles_red=st.integers(0, 10**9),
            cycles_zp=st.integers(0, 10**9),
            speedup=finite,
        ),
        max_size=5,
    ).map(tuple),
    fitted_exponent=st.one_of(st.none(), finite),
    failures=st.lists(error_infos, max_size=3).map(tuple),
)

network_requests = st.builds(
    NetworkRequest,
    network=st.sampled_from(("DCGAN", "Improved GAN", "SNGAN", "voc-fcn8s 8x")),
    designs=st.lists(st.sampled_from(("RED", "zero-padding")), max_size=2).map(tuple),
    batch=st.integers(1, 256),
    input_height=st.integers(1, 8),
    input_width=st.integers(1, 8),
    seed=st.integers(0, 2**31),
    tech_overrides=overrides,
)


@st.composite
def network_results(draw):
    design_names = draw(st.lists(names, min_size=1, max_size=2, unique=True))
    layer_labels = draw(st.lists(names, min_size=1, max_size=2, unique=True))
    layer_results = tuple(
        EvaluationResult(
            layer=label,
            designs=tuple(design_names),
            metrics=tuple(draw(metrics_values) for _ in design_names),
        )
        for label in layer_labels
    )
    summaries = tuple(
        NetworkDesignSummary(
            design=design,
            total_latency_s=draw(finite),
            total_energy_j=draw(finite),
            speedup=draw(finite),
            energy_saving=draw(finite),
            fill_latency_s=draw(finite),
            bottleneck_latency_s=draw(finite),
            throughput_per_s=draw(finite),
            chip_area_m2=draw(finite),
        )
        for design in design_names
    )
    return NetworkResult(
        network=draw(names),
        batch=draw(st.integers(1, 64)),
        layers=tuple(layer_labels),
        designs=tuple(design_names),
        layer_results=layer_results,
        summaries=summaries,
    )


positive_times = st.lists(
    st.floats(min_value=1e-3, max_value=1e9, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=4,
).map(tuple)

fidelity_requests = st.one_of(
    st.builds(
        FidelityRequest,
        layer=st.sampled_from(layer_names()),
        designs=st.lists(
            st.sampled_from(("RED", "zp", "padding-free")), max_size=3
        ).map(tuple),
        seeds=st.lists(st.integers(0, 2**31), min_size=1, max_size=4).map(tuple),
        times=positive_times,
        programming_sigma=finite,
        read_noise_sigma=finite,
        stuck_at_rate=st.floats(0.0, 1.0, allow_nan=False),
        adc_bits=st.one_of(st.none(), st.integers(1, 12)),
        tech_overrides=overrides,
        layer_name=st.one_of(st.just(""), names),
    ),
    st.builds(
        FidelityRequest,
        spec=specs(),
        seeds=st.lists(st.integers(0, 2**31), min_size=1, max_size=4).map(tuple),
        times=positive_times,
        max_rows=st.integers(1, 256),
        max_cols=st.integers(1, 256),
    ),
)


@st.composite
def fidelity_results(draw):
    design_names = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    points = tuple(
        FidelityPoint(
            design=design,
            seed=draw(st.integers(0, 2**31)),
            time_s=draw(st.floats(1e-3, 1e9, allow_nan=False)),
            rms_error=draw(finite),
            mean_abs_error=draw(finite),
            max_abs_error=draw(finite),
            stuck_fraction=draw(st.floats(0.0, 1.0, allow_nan=False)),
        )
        for design in design_names
        for _ in range(draw(st.integers(0, 2)))
    )
    return FidelityResult(
        layer=draw(names),
        designs=tuple(design_names),
        energy_j=tuple(draw(finite) for _ in design_names),
        points=points,
    )


command_payloads = st.builds(
    CommandPayload,
    command=names,
    data=st.one_of(
        st.none(),
        st.dictionaries(names, st.one_of(st.integers(), finite, names), max_size=3),
        st.lists(st.integers(), max_size=4),
    ),
    results=st.lists(evaluation_results(), max_size=2).map(tuple),
    text=st.text(max_size=40),
)

all_payloads = st.one_of(
    evaluation_requests,
    evaluation_results(),
    sweep_requests,
    sweep_results,
    network_requests,
    network_results(),
    fidelity_requests,
    fidelity_results(),
    command_payloads,
    error_infos,
)


# ----------------------------------------------------------------------
# Round-trip properties
# ----------------------------------------------------------------------
class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(all_payloads)
    def test_from_dict_inverts_to_dict(self, payload):
        assert type(payload).from_dict(payload.to_dict()) == payload

    @settings(max_examples=60, deadline=None)
    @given(all_payloads)
    def test_round_trip_survives_json(self, payload):
        wire = json.loads(json.dumps(payload.to_dict()))
        assert payload_from_dict(wire) == payload

    @settings(max_examples=30, deadline=None)
    @given(all_payloads)
    def test_payload_is_json_native_and_version_tagged(self, payload):
        wire = payload.to_dict()
        assert wire["schema_version"] == SCHEMA_VERSION
        assert wire["kind"] in (
            "evaluation_request", "evaluation_result", "sweep_request",
            "sweep_result", "network_request", "network_result",
            "fidelity_request", "fidelity_result", "command_result",
            "error_info",
        )
        json.dumps(wire)  # must not raise


class TestStrictValidation:
    def test_wrong_version_rejected(self):
        payload = EvaluationRequest(layer="GAN_Deconv1").to_dict()
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaError, match="schema_version"):
            EvaluationRequest.from_dict(payload)

    def test_unknown_key_rejected(self):
        payload = SweepRequest().to_dict()
        payload["surprise"] = 1
        with pytest.raises(SchemaError, match="surprise"):
            SweepRequest.from_dict(payload)

    def test_missing_required_key_rejected(self):
        payload = NetworkRequest(network="SNGAN").to_dict()
        del payload["network"]
        with pytest.raises(SchemaError, match="network"):
            NetworkRequest.from_dict(payload)

    def test_wrong_kind_rejected(self):
        payload = SweepRequest().to_dict()
        with pytest.raises(SchemaError, match="kind"):
            NetworkRequest.from_dict(payload)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError, match="unknown payload kind"):
            payload_from_dict({"kind": "mystery", "schema_version": SCHEMA_VERSION})

    def test_non_mapping_rejected(self):
        with pytest.raises(SchemaError):
            payload_from_dict([1, 2, 3])

    def test_layer_and_spec_both_set_rejected(self):
        with pytest.raises(SchemaError, match="exactly one"):
            EvaluationRequest(
                layer="GAN_Deconv1", spec=DeconvSpec(4, 4, 2, 3, 3, 2, stride=2, padding=1)
            )

    def test_neither_layer_nor_spec_rejected(self):
        with pytest.raises(SchemaError, match="exactly one"):
            EvaluationRequest()

    def test_bad_fold_rejected(self):
        with pytest.raises(SchemaError, match="fold"):
            EvaluationRequest(layer="GAN_Deconv1", fold=0)

    def test_unknown_tech_override_rejected(self):
        with pytest.raises(SchemaError, match="t_warp"):
            EvaluationRequest(layer="GAN_Deconv1", tech_overrides={"t_warp": 1.0})

    def test_empty_strides_rejected(self):
        with pytest.raises(SchemaError, match="strides"):
            SweepRequest(strides=())

    def test_bad_batch_rejected(self):
        with pytest.raises(SchemaError, match="batch"):
            NetworkRequest(network="SNGAN", batch=0)

    def test_overrides_are_normalized_and_hash_stable(self):
        a = EvaluationRequest(
            layer="GAN_Deconv1", tech_overrides={"t_adc": 1e-9, "e_mac": 2e-15}
        )
        b = EvaluationRequest(
            layer="GAN_Deconv1", tech_overrides=(("e_mac", 2e-15), ("t_adc", 1e-9))
        )
        assert a == b
        assert hash(a) == hash(b)

    def test_resolved_tech_applies_overrides(self):
        request = EvaluationRequest(layer="GAN_Deconv1", tech_overrides={"t_adc": 1e-9})
        assert request.resolved_tech().t_adc == 1e-9

    def test_mismatched_metrics_length_rejected(self):
        with pytest.raises(SchemaError, match="metrics"):
            EvaluationResult(layer="L", designs=("a", "b"), metrics=())


class TestFidelityValidation:
    def test_layer_and_spec_both_set_rejected(self):
        with pytest.raises(SchemaError, match="exactly one"):
            FidelityRequest(
                layer="GAN_Deconv1",
                spec=DeconvSpec(4, 4, 2, 3, 3, 2, stride=2, padding=1),
            )

    def test_empty_seeds_rejected(self):
        with pytest.raises(SchemaError, match="seeds"):
            FidelityRequest(layer="GAN_Deconv1", seeds=())

    def test_negative_seed_rejected(self):
        with pytest.raises(SchemaError, match="seeds"):
            FidelityRequest(layer="GAN_Deconv1", seeds=(0, -1))

    def test_non_positive_time_rejected(self):
        with pytest.raises(SchemaError, match="times"):
            FidelityRequest(layer="GAN_Deconv1", times=(1.0, 0.0))

    def test_stuck_rate_above_one_rejected(self):
        with pytest.raises(SchemaError, match="stuck_at_rate"):
            FidelityRequest(layer="GAN_Deconv1", stuck_at_rate=1.5)

    def test_negative_sigma_rejected(self):
        with pytest.raises(SchemaError, match="programming_sigma"):
            FidelityRequest(layer="GAN_Deconv1", programming_sigma=-0.1)

    def test_bool_adc_bits_rejected(self):
        with pytest.raises(SchemaError, match="adc_bits"):
            FidelityRequest(layer="GAN_Deconv1", adc_bits=True)

    def test_zero_max_rows_rejected(self):
        with pytest.raises(SchemaError, match="max_rows"):
            FidelityRequest(layer="GAN_Deconv1", max_rows=0)

    def test_seeds_and_times_normalized(self):
        request = FidelityRequest(layer="GAN_Deconv1", seeds=[2, 3], times=[60, 3600])
        assert request.seeds == (2, 3)
        assert request.times == (60.0, 3600.0)
        assert all(isinstance(t, float) for t in request.times)

    def test_mismatched_energy_length_rejected(self):
        with pytest.raises(SchemaError, match="energies"):
            FidelityResult(layer="L", designs=("a", "b"), energy_j=(1.0,), points=())

    def test_points_for_unknown_design_rejected(self):
        result = FidelityResult(layer="L", designs=("a",), energy_j=(1.0,), points=())
        with pytest.raises(KeyError):
            result.points_for("b")

    def test_fidelity_request_unknown_key_rejected(self):
        wire = FidelityRequest(layer="GAN_Deconv1").to_dict()
        wire["surprise"] = 1
        with pytest.raises(SchemaError, match="surprise"):
            FidelityRequest.from_dict(wire)


class TestErrorInfo:
    def test_from_exception_transient(self):
        info = ErrorInfo.from_exception(OSError("disk full"), source="stride=4")
        assert info.error_type == "OSError"
        assert info.message == "disk full"
        assert info.retryable
        assert info.source == "stride=4"

    def test_from_exception_permanent(self):
        info = ErrorInfo.from_exception(ShapeError("bad"))
        assert info.error_type == "ShapeError"
        assert not info.retryable
        assert info.source == ""

    def test_empty_error_type_rejected(self):
        with pytest.raises(SchemaError, match="error_type"):
            ErrorInfo(error_type="", message="x")

    def test_non_bool_retryable_rejected(self):
        with pytest.raises(SchemaError, match="retryable"):
            ErrorInfo(error_type="OSError", message="x", retryable=1)

    def test_unknown_key_rejected(self):
        wire = ErrorInfo(error_type="OSError", message="x").to_dict()
        wire["surprise"] = 1
        with pytest.raises(SchemaError, match="surprise"):
            ErrorInfo.from_dict(wire)

    def test_sweep_result_failures_must_hold_error_info(self):
        with pytest.raises(SchemaError, match="ErrorInfo"):
            SweepResult(points=(), failures=("stride=2",))

    def test_sweep_result_omits_empty_failures_on_wire(self):
        wire = SweepResult(points=()).to_dict()
        assert "failures" not in wire

    def test_payload_dispatch_rebuilds_error_info(self):
        info = ErrorInfo.from_exception(OSError("boom"), source="cli")
        wire = json.loads(json.dumps(info.to_dict()))
        assert payload_from_dict(wire) == info


class TestSchemaV2:
    """Version negotiation: v1 payloads round-trip, v2 fields downgrade."""

    def test_v1_payload_round_trips_as_v1(self):
        wire = SweepRequest(strides=(1, 2)).to_dict()
        wire["schema_version"] = 1
        parsed = payload_from_dict(wire)
        assert parsed.schema_version == 1
        assert parsed.to_dict()["schema_version"] == 1

    def test_unsupported_version_names_the_supported_set(self):
        wire = SweepRequest(strides=(1, 2)).to_dict()
        wire["schema_version"] = 99
        with pytest.raises(SchemaError, match=r"\[1, 2\]"):
            payload_from_dict(wire)

    def test_retry_after_s_requires_v2(self):
        with pytest.raises(SchemaError, match="retry_after_s"):
            ErrorInfo(
                error_type="OverloadedError",
                message="busy",
                retryable=True,
                retry_after_s=0.5,
                schema_version=1,
            )

    def test_retry_after_s_must_be_positive(self):
        with pytest.raises(SchemaError, match="retry_after_s"):
            ErrorInfo(
                error_type="OverloadedError",
                message="busy",
                retry_after_s=0.0,
            )

    def test_retry_after_s_round_trips_and_omits_when_unset(self):
        info = ErrorInfo(
            error_type="OverloadedError",
            message="busy",
            retryable=True,
            retry_after_s=0.25,
        )
        wire = json.loads(json.dumps(info.to_dict()))
        assert wire["retry_after_s"] == 0.25
        assert payload_from_dict(wire) == info
        bare = ErrorInfo(error_type="OSError", message="x").to_dict()
        assert "retry_after_s" not in bare

    def test_from_exception_carries_retry_hint(self):
        from repro.errors import OverloadedError

        info = ErrorInfo.from_exception(
            OverloadedError("queue full", retry_after_s=0.2)
        )
        assert info.retryable
        assert info.retry_after_s == 0.2

    def test_from_exception_follows_one_cause_level(self):
        from repro.errors import ReproError

        try:
            try:
                raise OSError("disk")
            except OSError as inner:
                raise ReproError("wrapped") from inner
        except ReproError as exc:
            info = ErrorInfo.from_exception(exc)
        assert info.error_type == "ReproError"
        assert info.retryable  # retryability preserved through __cause__

    def test_downgrade_strips_v2_fields_recursively(self):
        from repro.api.schema import downgrade_payload

        result = SweepResult(
            points=(),
            failures=(
                ErrorInfo(
                    error_type="OverloadedError",
                    message="busy",
                    retryable=True,
                    retry_after_s=0.5,
                ),
            ),
        )
        wire = downgrade_payload(result.to_dict(), 1)
        assert wire["schema_version"] == 1
        assert wire["failures"][0]["schema_version"] == 1
        assert "retry_after_s" not in wire["failures"][0]
        parsed = payload_from_dict(wire)
        assert parsed.schema_version == 1

    def test_downgrade_to_unsupported_version_rejected(self):
        from repro.api.schema import downgrade_payload

        with pytest.raises(SchemaError):
            downgrade_payload(SweepRequest(strides=(2,)).to_dict(), 0)


def _wire_with(payload, path, value):
    """``payload.to_dict()`` with the value at ``path`` (keys and indices) replaced."""
    wire = json.loads(json.dumps(payload.to_dict()))
    node = wire
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return wire


_METRICS = DesignMetrics(
    "RED", "L", LatencyBreakdown(wordline=1.0), EnergyBreakdown(bitline=2.0),
    AreaBreakdown(mux=3.0), cycles=4,
)
_EVAL_REQUEST = EvaluationRequest(layer="GAN_Deconv1")
_ERROR = ErrorInfo(error_type="OSError", message="x")
_FIDELITY_REQUEST = FidelityRequest(layer="GAN_Deconv1")

#: (payload, path to the bad value, bad value, the field path the error names).
#: The first ten raised TypeError/ValueError in the hand-written decoders;
#: the last six were coerced or passed through.
MALFORMED = [
    (_EVAL_REQUEST, ("designs",), 5, "evaluation_request.designs"),
    (_EVAL_REQUEST, ("designs",), "RED", "evaluation_request.designs"),
    (SweepRequest(), ("strides",), 5, "sweep_request.strides"),
    (_FIDELITY_REQUEST, ("seeds",), 5, "fidelity_request.seeds"),
    (SweepResult(points=()), ("points",), 5, "sweep_result.points"),
    (
        SweepResult(points=(SweepPoint(2, 4, 10, 40, 4.0),)),
        ("points", 0, "stride"), "x", "sweep_result.points[0].stride",
    ),
    (
        EvaluationResult(layer="L", designs=("RED",), metrics=(_METRICS,)),
        ("metrics", 0, "cycles"), "x", "evaluation_result.metrics[0].cycles",
    ),
    (
        FidelityResult(layer="L", designs=("RED",), energy_j=(1.0,), points=()),
        ("energy_j",), ["x"], "fidelity_result.energy_j[0]",
    ),
    (
        NetworkResult(network="DCGAN", batch=1, layers=(), designs=(),
                      layer_results=(), summaries=()),
        ("batch",), "x", "network_result.batch",
    ),
    (CommandPayload(command="report"), ("results",), 5, "command_result.results"),
    (_ERROR, ("retryable",), 1, "error_info.retryable"),
    (_EVAL_REQUEST, ("trace",), 1, "evaluation_request.trace"),
    (_ERROR, ("source",), 5, "error_info.source"),
    (_EVAL_REQUEST, ("layer",), 5, "evaluation_request.layer"),
    (NetworkRequest(network="SNGAN"), ("network",), 5, "network_request.network"),
    (_FIDELITY_REQUEST, ("times",), [True], "fidelity_request.times[0]"),
    (
        EvaluationResult(layer="L", designs=("RED",), metrics=(_METRICS,)),
        ("metrics", 0), 5, "evaluation_result.metrics[0]",
    ),
    (
        EvaluationResult(
            layer="L", designs=("RED",), metrics=(_METRICS,),
            cycle_stats=(CycleStats("RED", "L", 1, 8, (("a", 1),)),),
        ),
        ("cycle_stats", 0, "counters"), [1, 2], "evaluation_result.cycle_stats[0].counters",
    ),
    (
        EvaluationResult(
            layer="L", designs=("RED",), metrics=(_METRICS,),
            cycle_stats=(CycleStats("RED", "L", 1, 8, (("a", 1),)),),
        ),
        ("cycle_stats", 0, "counters", "a"), "x",
        "evaluation_result.cycle_stats[0].counters['a']",
    ),
]


class TestMalformedPayloads:
    @pytest.mark.parametrize(
        ("payload", "path", "value", "where"),
        MALFORMED,
        ids=[f"{where}={value!r}" for _, _, value, where in MALFORMED],
    )
    def test_schema_error_names_the_field(self, payload, path, value, where):
        wire = _wire_with(payload, path, value)
        with pytest.raises(SchemaError) as caught:
            payload_from_dict(wire)
        assert str(caught.value).startswith(f"{where}: ")

    def test_constructor_errors_are_wrapped_with_the_path(self):
        wire = EvaluationRequest(spec=DeconvSpec(4, 4, 2, 3, 3, 2, stride=2, padding=1)).to_dict()
        wire["spec"]["padding"] = 3
        with pytest.raises(SchemaError, match=r"^evaluation_request\.spec: padding 3") as caught:
            payload_from_dict(wire)
        assert isinstance(caught.value.__cause__, ShapeError)

    def test_unhashable_kind_is_a_schema_error(self):
        with pytest.raises(SchemaError, match="unknown payload kind"):
            payload_from_dict({"kind": [], "schema_version": SCHEMA_VERSION})

    def test_float_fields_store_floats(self):
        wire = FidelityRequest(layer="GAN_Deconv1").to_dict()
        wire["nu"] = 1
        assert type(payload_from_dict(wire).nu) is float


#: (payload class, constructor arguments, what the error says).  An
#: in-process caller builds requests without the wire decoder, so each
#: constructor validates its own fields.
INVALID_CONSTRUCTIONS = [
    (EvaluationRequest, {"spec": (4, 4, 2, 3, 3, 2)}, "spec must be a DeconvSpec"),
    (
        EvaluationRequest, {"layer": "GAN_Deconv1", "designs": "RED"},
        "designs must be a sequence of names, got the string",
    ),
    (EvaluationRequest, {"layer": "GAN_Deconv1", "designs": 5}, "designs must be a sequence"),
    (
        EvaluationRequest, {"layer": "GAN_Deconv1", "tech_overrides": 5},
        "tech_overrides must be a mapping or",
    ),
    (
        EvaluationRequest, {"layer": "GAN_Deconv1", "tech_overrides": {"t_adc": "fast"}},
        r"tech_overrides\['t_adc'\] must be a number",
    ),
    (SweepRequest, {"strides": ("2", "x")}, "strides must be integers"),
    (SweepRequest, {"fold": None}, "not None"),
    (SweepRequest, {"input_size": 0}, "input_size must be a positive int"),
    (SweepRequest, {"channels": True}, "channels must be a positive int"),
    (ErrorInfo, {"error_type": "OSError", "message": 5}, "message must be a string"),
    (
        ErrorInfo, {"error_type": "OSError", "message": "x", "source": 5},
        "source must be a string",
    ),
    (NetworkRequest, {"network": ""}, "network must be a non-empty string"),
    (NetworkRequest, {"network": "SNGAN", "seed": -1}, "seed must be a non-negative int"),
    (FidelityRequest, {"spec": "GAN_Deconv1"}, "spec must be a DeconvSpec"),
    (FidelityRequest, {"layer": "GAN_Deconv1", "seeds": ("a",)}, "seeds must be integers"),
    (FidelityRequest, {"layer": "GAN_Deconv1", "times": ("soon",)}, "times must be numbers"),
    (CommandPayload, {"command": ""}, "command must be a non-empty string"),
    (
        EvaluationResult,
        {"layer": "L", "designs": ("RED",), "metrics": (_METRICS,), "cycle_stats": (None, None)},
        "1 designs but 2 cycle stats",
    ),
]


class TestDirectConstruction:
    @pytest.mark.parametrize(
        ("cls", "kwargs", "message"),
        INVALID_CONSTRUCTIONS,
        ids=[
            f"{cls.__name__}-{'-'.join(sorted(kwargs))}-{i}"
            for i, (cls, kwargs, _) in enumerate(INVALID_CONSTRUCTIONS)
        ],
    )
    def test_invalid_field_rejected(self, cls, kwargs, message):
        with pytest.raises(SchemaError, match=message):
            cls(**kwargs)

    def test_none_overrides_mean_none(self):
        request = EvaluationRequest(layer="GAN_Deconv1", tech_overrides=None)
        assert request.tech_overrides == ()
        assert request == EvaluationRequest(layer="GAN_Deconv1")

    def test_metrics_for_unknown_design_raises_key_error(self):
        result = EvaluationResult(layer="L", designs=("RED",), metrics=(_METRICS,))
        assert result.metrics_for("RED") is _METRICS
        with pytest.raises(KeyError, match="zero-padding"):
            result.metrics_for("zero-padding")

    def test_summary_for_unknown_design_raises_key_error(self):
        summary = NetworkDesignSummary("RED", 1.0, 2.0, 3.0, 0.5, 0.1, 0.05, 20.0, 1e-6)
        result = NetworkResult(
            network="SNGAN", batch=1, layers=(), designs=("RED",),
            layer_results=(), summaries=(summary,),
        )
        assert result.summary_for("RED") is summary
        with pytest.raises(KeyError, match="padding-free"):
            result.summary_for("padding-free")


class TestDowngradeOpaqueData:
    def test_command_data_is_left_alone(self):
        from repro.api.schema import downgrade_payload

        data = {"retry_after_s": 0.5, "schema_version": 7, "rows": [{"schema_version": 2}]}
        cmd = CommandPayload(
            command="serve",
            data=data,
            results=(EvaluationResult(layer="L", designs=("RED",), metrics=(_METRICS,)),),
        )
        wire = downgrade_payload(cmd.to_dict(), 1)
        assert wire["data"] == data
        assert wire["schema_version"] == 1
        assert wire["results"][0]["schema_version"] == 1
        assert payload_from_dict(wire).data == data


def test_duplicate_kind_is_refused():
    from repro.api.schema import PAYLOAD_KINDS

    before = dict(PAYLOAD_KINDS)
    with pytest.raises(TypeError, match="sweep_request"):
        class Clash(SweepPoint):
            kind = "sweep_request"
    assert PAYLOAD_KINDS == before


def test_pair_fields_decode_sorted():
    # JSON objects carry no order the tuple-of-pairs form may depend on.
    stats = CycleStats("RED", "L", 1, 8, (("a", 1), ("b", 2)))
    result = EvaluationResult(
        layer="L", designs=("RED",), metrics=(_METRICS,), cycle_stats=(stats,)
    )
    wire = result.to_dict()
    wire["cycle_stats"][0]["counters"] = {"b": 2, "a": 1}
    assert payload_from_dict(wire) == result


def test_a_field_without_a_wire_codec_is_a_type_error():
    import dataclasses

    from repro.api.schema import _Payload

    @dataclasses.dataclass(frozen=True)
    class Unsupported(_Payload):
        values: frozenset = frozenset()

    with pytest.raises(TypeError, match="no wire codec"):
        Unsupported().to_dict()
