"""Versioned request/response schema for the service-layer API.

Every payload that crosses the service boundary — CLI ``--json`` output,
:class:`~repro.api.service.RedService` arguments and results, exported
records — is one of the frozen dataclasses below.  Each carries a
``schema_version`` (:data:`SCHEMA_VERSION`); every version in
:data:`SUPPORTED_SCHEMA_VERSIONS` still parses, a parsed payload keeps
the version it arrived with, and :func:`downgrade_payload` rewrites v2
trees for v1 readers.  ``T.from_dict(t.to_dict()) == t`` holds through
JSON (property-tested in ``tests/api/test_schema.py``; the bytes are
pinned by ``tests/api/golden/``).

The codec is derived once per class from the dataclass fields and their
annotations, and inherited from one base.  A wire payload declares
``kind: ClassVar[str]``, which registers it in :data:`PAYLOAD_KINDS`
for :func:`payload_from_dict`; its mapping starts with ``kind`` and
``schema_version``, then the fields in declaration order.  Tuples
encode as lists, ``tuple[tuple[str, X], ...]`` pairs as JSON objects.
Decoding is strict: ``int`` rejects bools, ``float`` takes an int or a
float and stores a float, ``str`` and ``bool`` match exactly,
``T | None`` takes ``None`` or a ``T``, a union of scalars takes any
arm, and ``object`` fields pass through.  Required keys are the fields
without defaults (plus ``schema_version`` on wire payloads); unknown
keys are rejected.  Every failure is a :class:`~repro.errors.SchemaError`
naming the field path (``sweep_result.points[0].stride``).  Field
metadata carries the versioning: ``since`` (the first version with the
field) drives :func:`downgrade_payload`, and ``omit_default`` keeps a
field off the wire at its default.  ``__post_init__`` validation stays
hand-written: it carries the real semantics.
"""

from __future__ import annotations

import dataclasses
import reprlib
from dataclasses import MISSING, dataclass, field, fields
from functools import cache, partial
from types import UnionType
from typing import ClassVar, get_args, get_origin, get_type_hints

from repro.arch.breakdown import DesignMetrics
from repro.arch.tech import TechnologyParams, default_tech
from repro.deconv.shapes import DeconvSpec
from repro.errors import SchemaError
from repro.eval.parallel import CycleStats

#: The current request/response schema generation.  Bump on any change
#: to the payload shapes below.  Version 2 added the serving plane's
#: ``ErrorInfo.retry_after_s`` overload-backoff hint.
SCHEMA_VERSION = 2

#: Every generation this library still parses.  Version 1 payloads
#: (no ``retry_after_s``) remain readable and round-trip unchanged, so
#: v1 clients keep working against a v2 server.
SUPPORTED_SCHEMA_VERSIONS = frozenset({1, 2})

#: ``kind`` -> payload class for :func:`payload_from_dict` (self-registered).
PAYLOAD_KINDS: dict[str, type] = {}

#: Wire key order where it differs from the (unchangeable) field order.
_WIRE_ORDER = {DesignMetrics: ("design", "layer", "cycles", "latency", "energy", "area")}

#: Scalar annotation -> (accepted runtime types, description).
_SCALARS = {int: ((int,), "an int"), float: ((int, float), "a number"),
            str: ((str,), "a string"), bool: ((bool,), "a bool")}

_TECH_FIELDS = frozenset(f.name for f in fields(TechnologyParams))


# ----------------------------------------------------------------------
# The derived codec
# ----------------------------------------------------------------------
class _DecodeError(Exception):
    """A decode failure; ``path`` grows innermost-first as it unwinds."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.path: list[str] = []


def _expected(what: str, value) -> _DecodeError:
    return _DecodeError(f"expected {what}, got {reprlib.repr(value)}")


def _scalar(*arms):
    """Strict decoder for a scalar annotation or a union of scalars."""
    accepted = tuple(t for arm in arms for t in _SCALARS[arm][0])
    what = " or ".join(_SCALARS[arm][1] for arm in arms)
    to_float = float in arms and int not in arms

    def decode(value):
        if isinstance(value, accepted) and (bool in arms or not isinstance(value, bool)):
            return float(value) if to_float and isinstance(value, int) else value
        raise _expected(what, value)

    return decode


def _codec(tp) -> tuple:
    """``(encode, decode, nested plan)`` of one resolved annotation; a ``None``
    code is the identity, and the plan leads downgrades to nested payloads."""
    if tp is object:
        return None, None, None
    if tp in _SCALARS:
        return None, _scalar(tp), None
    if dataclasses.is_dataclass(tp):
        plan = _plan(tp)
        return plan.encode, plan.decode, plan
    origin, args = get_origin(tp), get_args(tp)
    if origin is tuple and get_origin(args[0]) is tuple:
        return dict, partial(_decode_pairs, _codec(get_args(args[0])[1])[1]), None
    if origin is tuple:
        item, decode, nested = _codec(args[0])
        encode = list if item is None else (lambda values: [item(v) for v in values])
        return encode, partial(_decode_items, decode), nested
    arms = [arm for arm in args if arm is not type(None)]
    if origin is UnionType and len(arms) == 1:
        encode, decode, nested = _codec(arms[0])
    elif origin is UnionType and all(arm in _SCALARS for arm in arms):
        encode, decode, nested = None, _scalar(*arms), None
    else:
        raise TypeError(f"no wire codec for annotation {tp!r}")
    if len(arms) == len(args):
        return encode, decode, nested
    return encode and partial(_optional, encode), partial(_optional, decode), nested


def _optional(convert, value):
    return None if value is None else convert(value)


def _decode_items(decode, value) -> tuple:
    if not isinstance(value, list):
        raise _expected("a list", value)
    items = []
    try:
        for item in value:
            items.append(decode(item))
    except _DecodeError as exc:
        exc.path.append(f"[{len(items)}]")
        raise
    return tuple(items)


def _decode_pairs(decode_value, value) -> tuple:
    if not isinstance(value, dict):
        raise _expected("a mapping", value)
    pairs = []
    try:
        for key, item in value.items():
            pairs.append((key, item if decode_value is None else decode_value(item)))
    except _DecodeError as exc:
        exc.path.append(f"[{key!r}]")
        raise
    return tuple(sorted(pairs))


class _Plan:
    """The codec of one dataclass, derived once from its fields."""

    def __init__(self, cls) -> None:
        self.cls, self.kind = cls, getattr(cls, "kind", None)
        self.label = self.kind or cls.__name__
        declared = {f.name: f for f in fields(cls)}
        required = {name for name, f in declared.items()
                    if f.default is MISSING and f.default_factory is MISSING}
        order = _WIRE_ORDER.get(cls, tuple(declared))
        if self.kind is not None:
            order = ("schema_version", *(n for n in order if n != "schema_version"))
            required.add("schema_version")
        self.required = frozenset(required)
        self.allowed = frozenset(declared) | ({"kind"} if self.kind else set())
        hints = get_type_hints(cls)
        self.encoders, self.decoders, self.versions = [], [], {}
        for name in order:
            encode, decode, nested = _codec(hints[name])
            meta = declared[name].metadata
            self.encoders.append((name, encode, meta.get("omit_default"), declared[name].default))
            self.decoders.append((name, decode))
            self.versions[name] = (meta.get("since", 1), nested)

    def encode(self, obj) -> dict:
        wire = {"kind": self.kind} if self.kind else {}
        for name, encode, omit, default in self.encoders:
            value = getattr(obj, name)
            if not (omit and value == default):
                wire[name] = value if encode is None else encode(value)
        return wire

    def decode(self, payload):
        if not isinstance(payload, dict):
            raise _expected("a mapping", payload)
        if self.kind is not None and payload.get("kind", self.kind) != self.kind:
            raise _DecodeError(f"expected a {self.kind!r} payload, got kind {payload['kind']!r}")
        keys = payload.keys()
        if not (self.required <= keys and keys <= self.allowed):
            missing = sorted(self.required - set(keys))
            unknown = sorted(set(keys) - self.allowed, key=str)
            raise _DecodeError(f"missing keys {missing}" if missing else f"unknown keys {unknown}")
        kwargs = {}
        try:
            for name, decode in self.decoders:
                if name in payload:
                    kwargs[name] = payload[name] if decode is None else decode(payload[name])
        except _DecodeError as exc:
            exc.path.append(f".{name}")
            raise
        try:
            return self.cls(**kwargs)
        except Exception as exc:
            raise _DecodeError(str(exc)) from exc

    def downgrade(self, wire, version: int):
        """A wire mapping (or a list of them) rewritten for ``version``."""
        if isinstance(wire, list):
            return [self.downgrade(item, version) for item in wire]
        if not isinstance(wire, dict):
            return wire
        rewritten = {}
        for key, value in wire.items():
            since, nested = self.versions.get(key, (1, None))
            if since <= version:
                value = value if nested is None else nested.downgrade(value, version)
                rewritten[key] = version if key == "schema_version" else value
        return rewritten


@cache
def _plan(cls) -> _Plan:
    return _Plan(cls)


class _Payload:
    """Base of every schema dataclass: the derived ``to_dict``/``from_dict``.

    A subclass declaring ``kind`` is a wire payload and registers itself
    in :data:`PAYLOAD_KINDS`; a duplicate kind is an error.
    """

    kind: ClassVar[str | None] = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        kind = cls.__dict__.get("kind")
        if kind is not None and PAYLOAD_KINDS.setdefault(kind, cls) is not cls:
            raise TypeError(f"payload kind {kind!r} is declared twice ({cls.__name__})")

    def to_dict(self) -> dict:
        """This payload as JSON-native values (dicts, lists, scalars)."""
        return _plan(type(self)).encode(self)

    @classmethod
    def from_dict(cls, payload):
        """Strictly rebuild a payload; any failure is a SchemaError."""
        plan = _plan(cls)
        try:
            return plan.decode(payload)
        except _DecodeError as exc:
            where = plan.label + "".join(reversed(exc.path))
            raise SchemaError(f"{where}: {exc}") from exc.__cause__


class _TechRequest(_Payload):
    """A request carrying ``TechnologyParams`` field ``tech_overrides``."""

    def resolved_tech(self) -> TechnologyParams:
        """The default technology after applying the overrides."""
        base = default_tech()
        if not self.tech_overrides:
            return base
        return dataclasses.replace(base, **dict(self.tech_overrides))


def _check_instance_version(kind: str, version) -> None:
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise SchemaError(
            f"{kind} schema_version {version!r} is not one of the "
            f"supported versions {sorted(SUPPORTED_SCHEMA_VERSIONS)}"
        )


def _normalize_overrides(overrides) -> tuple[tuple[str, object], ...]:
    """Tech overrides as a sorted, hashable, validated tuple of pairs."""
    if overrides is None:
        return ()
    if isinstance(overrides, dict):
        items = overrides.items()
    else:
        try:
            items = [(k, v) for k, v in overrides]
        except (TypeError, ValueError):
            raise SchemaError(
                f"tech_overrides must be a mapping or (name, value) pairs, "
                f"got {overrides!r}"
            ) from None
    normalized = []
    for name, value in sorted(items):
        if name not in _TECH_FIELDS:
            raise SchemaError(
                f"unknown TechnologyParams field {name!r} in tech_overrides"
            )
        if not isinstance(value, (int, float, bool)):
            raise SchemaError(
                f"tech_overrides[{name!r}] must be a number or bool, got {value!r}"
            )
        normalized.append((name, value))
    return tuple(normalized)


def _validate_fold(fold) -> None:
    if fold is None or fold == "auto":
        return
    if isinstance(fold, bool) or not isinstance(fold, int) or fold < 1:
        raise SchemaError(f"fold must be a positive int, 'auto' or None, got {fold!r}")


def _tuple_of_str(value, label: str) -> tuple[str, ...]:
    if isinstance(value, str):
        raise SchemaError(f"{label} must be a sequence of names, got the string {value!r}")
    try:
        return tuple(str(v) for v in value)
    except TypeError:
        raise SchemaError(f"{label} must be a sequence of names, got {value!r}") from None


# ----------------------------------------------------------------------
# Evaluation: one layer, N designs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EvaluationRequest(_TechRequest):
    """Evaluate one layer across designs.

    Exactly one of ``layer`` (a Table I benchmark-layer name) or
    ``spec`` must be given.  ``designs`` may use registry aliases; empty
    means "every registered design, in registration order".

    Attributes:
        layer: Table I layer name, or ``None`` when ``spec`` is given.
        spec: explicit layer shape, or ``None`` when ``layer`` is given.
        designs: design names/aliases; ``()`` -> all registered.
        fold: Eq. 2 fold for fold-aware designs (``None`` -> design default).
        tech_overrides: ``TechnologyParams`` field overrides, applied to
            the service's base technology.
        trace: also run the cycle-level engine and return
            :class:`~repro.eval.parallel.CycleStats` per capable design.
        layer_name: label carried into the metrics (defaults to
            ``layer`` or the spec description).
    """

    kind: ClassVar[str] = "evaluation_request"
    layer: str | None = None
    spec: DeconvSpec | None = None
    designs: tuple[str, ...] = ()
    fold: int | str | None = None
    tech_overrides: tuple[tuple[str, object], ...] = ()
    trace: bool = False
    layer_name: str = ""
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check_instance_version("EvaluationRequest", self.schema_version)
        if (self.layer is None) == (self.spec is None):
            raise SchemaError(
                "exactly one of 'layer' (a benchmark-layer name) or 'spec' "
                "must be provided"
            )
        if self.spec is not None and not isinstance(self.spec, DeconvSpec):
            raise SchemaError(f"spec must be a DeconvSpec, got {type(self.spec).__name__}")
        _validate_fold(self.fold)
        object.__setattr__(self, "designs", _tuple_of_str(self.designs, "designs"))
        object.__setattr__(
            self, "tech_overrides", _normalize_overrides(self.tech_overrides)
        )


@dataclass(frozen=True)
class EvaluationResult(_Payload):
    """Per-design metrics (and optional cycle stats) for one layer.

    Attributes:
        layer: the evaluated layer's label.
        designs: canonical design names, in evaluation order.
        metrics: one :class:`DesignMetrics` per design.
        cycle_stats: cycle-level stats aligned with ``designs`` when the
            request asked for a trace (``None`` per design without a
            cycle engine); empty tuple otherwise.
    """

    kind: ClassVar[str] = "evaluation_result"
    layer: str
    designs: tuple[str, ...]
    metrics: tuple[DesignMetrics, ...]
    cycle_stats: tuple[CycleStats | None, ...] = ()
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check_instance_version("EvaluationResult", self.schema_version)
        object.__setattr__(self, "designs", tuple(self.designs))
        object.__setattr__(self, "metrics", tuple(self.metrics))
        object.__setattr__(self, "cycle_stats", tuple(self.cycle_stats))
        if len(self.designs) != len(self.metrics):
            raise SchemaError(
                f"{len(self.designs)} designs but {len(self.metrics)} metrics"
            )
        if self.cycle_stats and len(self.cycle_stats) != len(self.designs):
            raise SchemaError(
                f"{len(self.designs)} designs but {len(self.cycle_stats)} cycle stats"
            )

    def metrics_for(self, design: str) -> DesignMetrics:
        """Metrics for one design name."""
        for name, metrics in zip(self.designs, self.metrics):
            if name == design:
                return metrics
        raise KeyError(f"design {design!r} not in result ({self.designs})")


# ----------------------------------------------------------------------
# Stride sweep
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepRequest(_TechRequest):
    """The Sec. III-C stride-speedup sweep, parameterized.

    Attributes mirror :func:`repro.eval.sweeps.stride_speedup_sweep`.
    """

    kind: ClassVar[str] = "sweep_request"
    strides: tuple[int, ...] = (1, 2, 4, 8)
    input_size: int = 8
    channels: int = 64
    filters: int = 32
    fold: int | str = 1
    tech_overrides: tuple[tuple[str, object], ...] = ()
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check_instance_version("SweepRequest", self.schema_version)
        try:
            strides = tuple(int(s) for s in self.strides)
        except (TypeError, ValueError):
            raise SchemaError(f"strides must be integers, got {self.strides!r}") from None
        if not strides or any(s < 1 for s in strides):
            raise SchemaError(f"strides must be positive and non-empty, got {strides!r}")
        object.__setattr__(self, "strides", strides)
        _validate_fold(self.fold)
        if self.fold is None:
            raise SchemaError("sweep fold must be an int or 'auto', not None")
        for name in ("input_size", "channels", "filters"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise SchemaError(f"{name} must be a positive int, got {value!r}")
        object.__setattr__(
            self, "tech_overrides", _normalize_overrides(self.tech_overrides)
        )


@dataclass(frozen=True)
class SweepPoint(_Payload):
    """One measured stride of the sweep (mirrors ``StrideSweepPoint``)."""

    stride: int
    modes: int
    cycles_red: int
    cycles_zp: int
    speedup: float


@dataclass(frozen=True)
class ErrorInfo(_Payload):
    """A failure, as it travels on the wire.

    The error envelope the serving plane round-trips: enough to
    classify (``error_type``), display (``message``), locate
    (``source`` — a stage, stride or shard label) and react
    (``retryable``, per the taxonomy in :mod:`repro.errors`, plus the
    ``retry_after_s`` backoff hint deterministic load shedding
    attaches — a schema v2 addition, rejected at v1).  Carried
    standalone by the CLI's ``--json`` error boundary and embedded in
    partial results (:attr:`SweepResult.failures`).
    """

    kind: ClassVar[str] = "error_info"
    error_type: str
    message: str
    retryable: bool = False
    source: str = ""
    retry_after_s: float | None = field(default=None, metadata={"since": 2, "omit_default": True})
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check_instance_version("ErrorInfo", self.schema_version)
        if not isinstance(self.error_type, str) or not self.error_type:
            raise SchemaError(
                f"error_type must be a non-empty string, got {self.error_type!r}"
            )
        if not isinstance(self.message, str):
            raise SchemaError(f"message must be a string, got {self.message!r}")
        if not isinstance(self.retryable, bool):
            raise SchemaError(f"retryable must be a bool, got {self.retryable!r}")
        if not isinstance(self.source, str):
            raise SchemaError(f"source must be a string, got {self.source!r}")
        if self.retry_after_s is not None:
            if (
                not isinstance(self.retry_after_s, (int, float))
                or isinstance(self.retry_after_s, bool)
                or not self.retry_after_s > 0
            ):
                raise SchemaError(
                    f"retry_after_s must be a positive number or None, "
                    f"got {self.retry_after_s!r}"
                )
            if self.schema_version < 2:
                raise SchemaError(
                    "retry_after_s requires schema_version >= 2, "
                    f"got version {self.schema_version}"
                )
            object.__setattr__(self, "retry_after_s", float(self.retry_after_s))

    @classmethod
    def from_exception(cls, exc: BaseException, source: str = "") -> "ErrorInfo":
        """The envelope for a caught exception.

        ``retryable`` comes from the reliability plane's
        transient/permanent split
        (:func:`repro.reliability.policy.is_retryable`), following one
        level of ``__cause__`` so the transient bit survives
        service-tier wrapping (``raise RichError from OSError``).
        ``retry_after_s`` is lifted off the exception when it carries
        one (:class:`~repro.errors.OverloadedError`).
        """
        from repro.reliability.policy import is_retryable

        retry_after_s = getattr(exc, "retry_after_s", None)
        if (
            not isinstance(retry_after_s, (int, float))
            or isinstance(retry_after_s, bool)
            or retry_after_s <= 0
        ):
            retry_after_s = None
        return cls(
            error_type=type(exc).__name__,
            message=str(exc),
            retryable=is_retryable(exc, follow_cause=True),
            source=source,
            retry_after_s=retry_after_s,
        )


@dataclass(frozen=True)
class SweepResult(_Payload):
    """The measured stride-speedup curve, possibly partial.

    Attributes:
        points: one :class:`SweepPoint` per *successful* stride,
            ascending.
        fitted_exponent: least-squares ``b`` of ``speedup ~ stride^b``,
            or ``None`` when fewer than two strides exceed 1.
        failures: :class:`ErrorInfo` per failed stride (empty on a full
            result).  Partial-result semantics: when non-empty, the
            sweep completed for the strides in ``points`` and failed
            for those named in each failure's ``source``.
    """

    kind: ClassVar[str] = "sweep_result"
    points: tuple[SweepPoint, ...]
    fitted_exponent: float | None = None
    failures: tuple[ErrorInfo, ...] = field(default=(), metadata={"omit_default": True})
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check_instance_version("SweepResult", self.schema_version)
        object.__setattr__(self, "points", tuple(self.points))
        failures = tuple(self.failures)
        for failure in failures:
            if not isinstance(failure, ErrorInfo):
                raise SchemaError(
                    f"failures must hold ErrorInfo, got {type(failure).__name__}"
                )
        object.__setattr__(self, "failures", failures)


# ----------------------------------------------------------------------
# Whole-network evaluation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NetworkRequest(_TechRequest):
    """Evaluate every deconv layer of a named workload network.

    Attributes:
        network: Table I network name (``DCGAN``, ``Improved GAN``,
            ``SNGAN``, ``voc-fcn8s 2x``, ``voc-fcn8s 8x``).
        designs: design names/aliases; ``()`` -> all registered.
        batch: samples streamed through the inter-layer pipeline.
        input_height / input_width: network input spatial size
            (1 for latent-vector generators).
        seed: RNG seed for the synthesized network weights.
    """

    kind: ClassVar[str] = "network_request"
    network: str
    designs: tuple[str, ...] = ()
    batch: int = 16
    input_height: int = 1
    input_width: int = 1
    seed: int = 0
    tech_overrides: tuple[tuple[str, object], ...] = ()
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check_instance_version("NetworkRequest", self.schema_version)
        if not isinstance(self.network, str) or not self.network:
            raise SchemaError(f"network must be a non-empty string, got {self.network!r}")
        for name in ("batch", "input_height", "input_width"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise SchemaError(f"{name} must be a positive int, got {value!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise SchemaError(f"seed must be a non-negative int, got {self.seed!r}")
        object.__setattr__(self, "designs", _tuple_of_str(self.designs, "designs"))
        object.__setattr__(
            self, "tech_overrides", _normalize_overrides(self.tech_overrides)
        )


@dataclass(frozen=True)
class NetworkDesignSummary(_Payload):
    """End-to-end roll-up of one design over a whole network.

    Attributes:
        design: canonical design name.
        total_latency_s / total_energy_j: sequential (non-pipelined)
            totals over all deconv layers.
        speedup / energy_saving: vs. the baseline design.
        fill_latency_s: first-sample latency through the pipeline.
        bottleneck_latency_s: steady-state initiation interval.
        throughput_per_s: pipelined samples per second.
        chip_area_m2: area of a chip provisioned for this design.
    """

    design: str
    total_latency_s: float
    total_energy_j: float
    speedup: float
    energy_saving: float
    fill_latency_s: float
    bottleneck_latency_s: float
    throughput_per_s: float
    chip_area_m2: float


@dataclass(frozen=True)
class NetworkResult(_Payload):
    """Whole-network evaluation: per-layer metrics plus design roll-ups.

    Attributes:
        network: the evaluated network's name.
        batch: pipeline batch the summaries assume.
        layers: deconv layer names in execution order.
        designs: canonical design names evaluated.
        layer_results: one :class:`EvaluationResult` per layer.
        summaries: one :class:`NetworkDesignSummary` per design.
    """

    kind: ClassVar[str] = "network_result"
    network: str
    batch: int
    layers: tuple[str, ...]
    designs: tuple[str, ...]
    layer_results: tuple[EvaluationResult, ...]
    summaries: tuple[NetworkDesignSummary, ...]
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check_instance_version("NetworkResult", self.schema_version)
        for name in ("layers", "designs", "layer_results", "summaries"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    def summary_for(self, design: str) -> NetworkDesignSummary:
        """Roll-up for one design name."""
        for summary in self.summaries:
            if summary.design == design:
                return summary
        raise KeyError(f"design {design!r} not in result ({self.designs})")


# ----------------------------------------------------------------------
# Device-fidelity frontier: accuracy vs energy vs drift, per design
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FidelityRequest(_TechRequest):
    """Monte-Carlo device-fidelity sweep over one layer.

    Exactly one of ``layer`` or ``spec`` must be given (same contract as
    :class:`EvaluationRequest`).  The scenario knobs mirror
    :class:`~repro.eval.parallel.FidelityJob`: every requested design is
    sampled over the full ``seeds x times`` grid under the same noise
    scenario, and the result pairs each design's fidelity curve with its
    analytic energy so the accuracy-vs-energy-vs-drift frontier can be
    read off directly.

    Attributes:
        layer: Table I layer name, or ``None`` when ``spec`` is given.
        spec: explicit layer shape, or ``None`` when ``layer`` is given.
        designs: design names/aliases; ``()`` -> all registered.
        seeds: Monte-Carlo seeds (non-negative, non-empty).
        times: retention times in seconds (positive, non-empty).
        nu: drift exponent.
        programming_sigma: lognormal write-variation sigma.
        read_noise_sigma: relative read-noise sigma.
        stuck_at_rate: stuck-at fault probability per cell.
        adc_bits: ADC resolution override (``None`` -> lossless sizing).
        max_rows / max_cols: probe-array caps for the derived profiles.
        tech_overrides: ``TechnologyParams`` field overrides.
        layer_name: label carried into the results.
    """

    kind: ClassVar[str] = "fidelity_request"
    layer: str | None = None
    spec: DeconvSpec | None = None
    designs: tuple[str, ...] = ()
    seeds: tuple[int, ...] = (0, 1, 2, 3)
    times: tuple[float, ...] = (1.0, 3600.0, 86400.0, 2.6e6, 3.2e7)
    nu: float = 0.02
    programming_sigma: float = 0.05
    read_noise_sigma: float = 0.0
    stuck_at_rate: float = 0.0
    adc_bits: int | None = None
    max_rows: int = 128
    max_cols: int = 128
    tech_overrides: tuple[tuple[str, object], ...] = ()
    layer_name: str = ""
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check_instance_version("FidelityRequest", self.schema_version)
        if (self.layer is None) == (self.spec is None):
            raise SchemaError(
                "exactly one of 'layer' (a benchmark-layer name) or 'spec' "
                "must be provided"
            )
        if self.spec is not None and not isinstance(self.spec, DeconvSpec):
            raise SchemaError(f"spec must be a DeconvSpec, got {type(self.spec).__name__}")
        try:
            seeds = tuple(int(s) for s in self.seeds)
        except (TypeError, ValueError):
            raise SchemaError(f"seeds must be integers, got {self.seeds!r}") from None
        if not seeds or any(s < 0 for s in seeds):
            raise SchemaError(f"seeds must be non-negative and non-empty, got {seeds!r}")
        object.__setattr__(self, "seeds", seeds)
        try:
            times = tuple(float(t) for t in self.times)
        except (TypeError, ValueError):
            raise SchemaError(f"times must be numbers, got {self.times!r}") from None
        if not times or any(t <= 0.0 for t in times):
            raise SchemaError(f"times must be positive and non-empty, got {times!r}")
        object.__setattr__(self, "times", times)
        for name in ("nu", "programming_sigma", "read_noise_sigma"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool) or value < 0:
                raise SchemaError(f"{name} must be a non-negative number, got {value!r}")
        rate = self.stuck_at_rate
        if not isinstance(rate, (int, float)) or isinstance(rate, bool) or not 0 <= rate <= 1:
            raise SchemaError(f"stuck_at_rate must be in [0, 1], got {rate!r}")
        if self.adc_bits is not None and (
            not isinstance(self.adc_bits, int)
            or isinstance(self.adc_bits, bool)
            or self.adc_bits < 1
        ):
            raise SchemaError(f"adc_bits must be a positive int or None, got {self.adc_bits!r}")
        for name in ("max_rows", "max_cols"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise SchemaError(f"{name} must be a positive int, got {value!r}")
        object.__setattr__(self, "designs", _tuple_of_str(self.designs, "designs"))
        object.__setattr__(
            self, "tech_overrides", _normalize_overrides(self.tech_overrides)
        )


@dataclass(frozen=True)
class FidelityPoint(_Payload):
    """One Monte-Carlo sample of the frontier (mirrors
    :class:`~repro.eval.parallel.FidelityStats`, labels dropped)."""

    design: str
    seed: int
    time_s: float
    rms_error: float
    mean_abs_error: float
    max_abs_error: float
    stuck_fraction: float


@dataclass(frozen=True)
class FidelityResult(_Payload):
    """The accuracy-vs-energy-vs-drift frontier for one layer.

    Attributes:
        layer: the evaluated layer's label.
        designs: canonical design names, in evaluation order.
        energy_j: analytic per-layer energy per design (the frontier's
            energy axis, from :class:`~repro.arch.breakdown.DesignMetrics`).
        points: every Monte-Carlo sample, design-major then in the
            request's ``seeds x times`` order.
    """

    kind: ClassVar[str] = "fidelity_result"
    layer: str
    designs: tuple[str, ...]
    energy_j: tuple[float, ...]
    points: tuple[FidelityPoint, ...]
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check_instance_version("FidelityResult", self.schema_version)
        object.__setattr__(self, "designs", tuple(self.designs))
        object.__setattr__(self, "energy_j", tuple(float(e) for e in self.energy_j))
        object.__setattr__(self, "points", tuple(self.points))
        if len(self.designs) != len(self.energy_j):
            raise SchemaError(
                f"{len(self.designs)} designs but {len(self.energy_j)} energies"
            )

    def points_for(self, design: str) -> tuple[FidelityPoint, ...]:
        """Every sample of one design, in request order."""
        if design not in self.designs:
            raise KeyError(f"design {design!r} not in result ({self.designs})")
        return tuple(p for p in self.points if p.design == design)


# ----------------------------------------------------------------------
# Generic CLI envelope
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CommandPayload(_Payload):
    """Envelope for CLI subcommands without a dedicated result type.

    ``data`` must be a JSON-native tree (the CLI builds it that way);
    ``results`` carries structured :class:`EvaluationResult` entries for
    grid-backed commands; ``text`` preserves the rendered table so the
    payload is lossless versus the non-``--json`` output.
    """

    kind: ClassVar[str] = "command_result"
    command: str
    data: object = None
    results: tuple[EvaluationResult, ...] = ()
    text: str = ""
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check_instance_version("CommandPayload", self.schema_version)
        if not isinstance(self.command, str) or not self.command:
            raise SchemaError(f"command must be a non-empty string, got {self.command!r}")
        object.__setattr__(self, "results", tuple(self.results))


def _payload_class(payload) -> type:
    if not isinstance(payload, dict):
        raise SchemaError(f"api payload must be a mapping, got {type(payload).__name__}")
    kind = payload.get("kind")
    cls = PAYLOAD_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise SchemaError(f"unknown payload kind {kind!r}; expected one of {sorted(PAYLOAD_KINDS)}")
    return cls


def payload_from_dict(payload):
    """Rebuild any schema object from its ``to_dict`` form.

    Dispatches on the embedded ``"kind"`` discriminator; unknown or
    missing kinds raise :class:`~repro.errors.SchemaError`.
    """
    return _payload_class(payload).from_dict(payload)


def downgrade_payload(wire, version: int) -> dict:
    """Rewrite a ``to_dict`` tree for an older-generation client.

    The serving front door answers a client at the schema version the
    client spoke: every payload mapping in the tree gets that
    ``schema_version`` and loses the fields newer than it (``since``
    metadata), so a strict older ``from_dict`` accepts the result.
    ``object`` fields (``CommandPayload.data``) are opaque and left
    alone.  The input tree is not mutated.
    """
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        supported = sorted(SUPPORTED_SCHEMA_VERSIONS)
        raise SchemaError(f"cannot downgrade to schema_version {version!r}; supported: {supported}")
    return _plan(_payload_class(wire)).downgrade(wire, version)
