"""Golden wire fixtures: the exact bytes every payload kind puts on the wire.

Each case below is encoded at both schema versions — v2 straight from
``to_dict``, v1 through :func:`~repro.api.schema.downgrade_payload` — and
compared byte for byte with ``tests/api/golden/<case>.v<N>.json``.
Decoding a fixture and encoding it again must give the same bytes, so a
codec change that reorders keys, drops an omission rule or coerces a
value differently shows up here before any client notices.

The fixtures were recorded from the hand-written codec and are not
regenerated casually.  After a deliberate wire change (a new schema
version), rewrite them with::

    PYTHONPATH=src python tests/api/test_golden.py
"""

import json
from pathlib import Path

import pytest

from repro.api.schema import (
    PAYLOAD_KINDS,
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
    downgrade_payload,
    payload_from_dict,
)
from repro.arch.breakdown import (
    AreaBreakdown,
    DesignMetrics,
    EnergyBreakdown,
    LatencyBreakdown,
)
from repro.deconv.shapes import DeconvSpec
from repro.eval.parallel import CycleStats

GOLDEN = Path(__file__).parent / "golden"
VERSIONS = (1, 2)

SPEC = DeconvSpec(4, 4, 8, 4, 4, 5, stride=2, padding=1)


def _metrics(design: str, layer: str, scale: float, cycles: int) -> DesignMetrics:
    return DesignMetrics(
        design=design,
        layer=layer,
        latency=LatencyBreakdown(
            wordline=1.5e-9 * scale, bitline=2.25e-9 * scale,
            computation=1e-7 * scale, decoder=3e-10, mux=4e-10 * scale,
            read_circuit=5.5e-9, shift_adder=6e-10,
        ),
        energy=EnergyBreakdown(
            wordline=1.25e-12 * scale, bitline=2e-12, computation=3.5e-11 * scale,
            decoder=1e-13, mux=2e-13, read_circuit=7.75e-12, shift_adder=1e-13,
            extra_adder=0.5e-13 * scale, crop=0.0,
        ),
        area=AreaBreakdown(
            wordline=1e-10, bitline=2e-10, computation=3.2e-8 * scale,
            decoder=4e-11, mux=5e-11, read_circuit=6e-10, shift_adder=7e-11,
        ),
        cycles=cycles,
    )


def _evaluation_result(layer: str, traced: bool) -> EvaluationResult:
    return EvaluationResult(
        layer=layer,
        designs=("zero-padding", "padding-free", "RED"),
        metrics=(
            _metrics("zero-padding", layer, 4.0, 4096),
            _metrics("padding-free", layer, 2.0, 1024),
            _metrics("RED", layer, 1.0, 256),
        ),
        cycle_stats=(
            (
                CycleStats(
                    "zero-padding", layer, 1, 4096,
                    (("adc_reads", 81920), ("mac_ops", 327680)),
                ),
                None,
                CycleStats(
                    "RED", layer, 4, 256,
                    (("adc_reads", 20480), ("bank_switches", 3), ("mac_ops", 81920)),
                ),
            )
            if traced
            else ()
        ),
    )


def _summary(design: str, scale: float) -> NetworkDesignSummary:
    return NetworkDesignSummary(
        design=design,
        total_latency_s=2.5e-5 * scale,
        total_energy_j=1.75e-8 * scale,
        speedup=1.0 / scale,
        energy_saving=1.0 - scale / 4.0,
        fill_latency_s=3e-5 * scale,
        bottleneck_latency_s=1.25e-5 * scale,
        throughput_per_s=80000.0 / scale,
        chip_area_m2=2.5e-6,
    )


def _fidelity_points(design: str, rms: float) -> tuple[FidelityPoint, ...]:
    return tuple(
        FidelityPoint(
            design=design, seed=seed, time_s=time_s,
            rms_error=rms * (1 + seed) * (1.0 + time_s / 1e6),
            mean_abs_error=rms * 0.8, max_abs_error=rms * 3.5,
            stuck_fraction=0.001 * seed,
        )
        for seed in (0, 1)
        for time_s in (1.0, 86400.0)
    )


BUSY = ErrorInfo(
    error_type="OverloadedError",
    message="admission queue full (32 waiting)",
    retryable=True,
    source="serving.admission",
    retry_after_s=0.25,
)

#: Case name -> builder.  Every kind appears; the variants reach the
#: optional paths (spec vs layer, traced stats with a ``None`` entry,
#: partial sweeps, the v2-only retry hint, nested results).
CASES = {
    "evaluation_request_layer": lambda: EvaluationRequest(
        layer="GAN_Deconv1",
        designs=("RED", "zp"),
        fold="auto",
        tech_overrides={"t_adc": 1e-9, "mux_share": 4},
        trace=True,
        layer_name="gen-1",
    ),
    "evaluation_request_spec": lambda: EvaluationRequest(spec=SPEC, fold=2),
    "evaluation_result": lambda: _evaluation_result("GAN_Deconv1", traced=False),
    "evaluation_result_traced": lambda: _evaluation_result("4x4x8 s2", traced=True),
    "sweep_request": lambda: SweepRequest(
        strides=(1, 2, 4, 8), input_size=8, channels=64, filters=32, fold="auto",
        tech_overrides={"e_mac": 2e-15},
    ),
    "sweep_result": lambda: SweepResult(
        points=(
            SweepPoint(1, 1, 4096, 4096, 1.0),
            SweepPoint(2, 4, 1024, 4096, 4.0),
            SweepPoint(4, 16, 272, 4352, 16.0),
        ),
        fitted_exponent=1.9931568569324174,
    ),
    "sweep_result_partial": lambda: SweepResult(
        points=(SweepPoint(1, 1, 4096, 4096, 1.0),),
        fitted_exponent=None,
        failures=(
            ErrorInfo(
                error_type="InjectedFaultError",
                message="injected io_error at store.put_many",
                retryable=True,
                source="stride=2",
            ),
            BUSY,
        ),
    ),
    "network_request": lambda: NetworkRequest(
        network="voc-fcn8s 8x", designs=("RED", "zero-padding"), batch=4,
        input_height=16, input_width=16, seed=7,
    ),
    "network_result": lambda: NetworkResult(
        network="DCGAN",
        batch=16,
        layers=("GAN_Deconv1", "GAN_Deconv2"),
        designs=("zero-padding", "padding-free", "RED"),
        layer_results=(
            _evaluation_result("GAN_Deconv1", traced=False),
            _evaluation_result("GAN_Deconv2", traced=False),
        ),
        summaries=(
            _summary("zero-padding", 4.0),
            _summary("padding-free", 2.0),
            _summary("RED", 1.0),
        ),
    ),
    "fidelity_request_layer": lambda: FidelityRequest(
        layer="FCN_Deconv1", designs=("RED",), seeds=(0, 1), times=(1.0, 86400.0),
        nu=0.03, read_noise_sigma=0.01, stuck_at_rate=0.001, adc_bits=8,
        tech_overrides={"t_adc": 2e-9}, layer_name="fcn",
    ),
    "fidelity_request_spec": lambda: FidelityRequest(
        spec=SPEC, max_rows=64, max_cols=32,
    ),
    "fidelity_result": lambda: FidelityResult(
        layer="FCN_Deconv1",
        designs=("zero-padding", "RED"),
        energy_j=(4.5e-8, 1.125e-8),
        points=_fidelity_points("zero-padding", 0.0125) + _fidelity_points("RED", 0.01),
    ),
    "command_result": lambda: CommandPayload(
        command="table1",
        data={"rows": [["GAN_Deconv1", 3.69, 0.8836]], "units": {"speedup": "x"}},
        results=(_evaluation_result("GAN_Deconv1", traced=False),),
        text="layer        speedup\nGAN_Deconv1  3.69x\n",
    ),
    "error_info": lambda: ErrorInfo(
        error_type="ShapeError", message="padding 4 must be smaller than the kernel",
    ),
    "error_info_retry_hint": lambda: BUSY,
}


def _wire(name: str, version: int) -> dict:
    wire = CASES[name]().to_dict()
    return wire if version == 2 else downgrade_payload(wire, version)


def _path(name: str, version: int) -> Path:
    return GOLDEN / f"{name}.v{version}.json"


def _encode(wire: dict) -> str:
    return json.dumps(wire) + "\n"


CASE_IDS = [(name, version) for name in sorted(CASES) for version in VERSIONS]


@pytest.mark.parametrize(("name", "version"), CASE_IDS)
def test_encode_matches_fixture(name, version):
    assert _encode(_wire(name, version)) == _path(name, version).read_text()


@pytest.mark.parametrize(("name", "version"), CASE_IDS)
def test_decode_then_encode_reproduces_fixture(name, version):
    text = _path(name, version).read_text()
    decoded = payload_from_dict(json.loads(text))
    assert decoded.schema_version == version
    assert _encode(decoded.to_dict()) == text


def test_fixtures_cover_every_kind():
    kinds = {
        json.loads(_path(name, 2).read_text())["kind"] for name in CASES
    }
    assert kinds == set(PAYLOAD_KINDS)
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == sorted(
        _path(name, version).name for name, version in CASE_IDS
    )


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, version in CASE_IDS:
        _path(case, version).write_text(_encode(_wire(case, version)))
