"""Versioned request/response schema for the service-layer API.

Every payload that crosses the service boundary — CLI ``--json`` output,
:class:`~repro.api.service.RedService` arguments and results, exported
records — is one of the frozen dataclasses below.  Each type:

* carries a ``schema_version`` field (:data:`SCHEMA_VERSION`) so readers
  can reject payloads from an unsupported API generation — every
  version in :data:`SUPPORTED_SCHEMA_VERSIONS` still parses, and a
  parsed payload keeps the version it arrived with so v1 round-trips
  stay v1 (:func:`downgrade_payload` rewrites v2 trees for v1 readers);
* round-trips exactly: ``T.from_dict(t.to_dict()) == t``, including
  through ``json.dumps``/``json.loads`` (property-tested in
  ``tests/api/test_schema.py``);
* validates strictly — wrong version, unknown keys, missing required
  keys and malformed values all raise
  :class:`~repro.errors.SchemaError`, never produce a half-built object.

``to_dict`` emits JSON-native values only (dicts, lists, strings,
numbers, booleans, ``None``); ``from_dict`` restores the frozen tuple
forms.  The generic :func:`payload_from_dict` dispatches on the
``"kind"`` discriminator every ``to_dict`` embeds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields

from repro.arch.breakdown import (
    AreaBreakdown,
    DesignMetrics,
    EnergyBreakdown,
    LatencyBreakdown,
)
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

_TECH_FIELDS = frozenset(f.name for f in fields(TechnologyParams))


# ----------------------------------------------------------------------
# Strict payload plumbing
# ----------------------------------------------------------------------
def _require_mapping(payload, kind: str) -> dict:
    if not isinstance(payload, dict):
        raise SchemaError(f"{kind} payload must be a mapping, got {type(payload).__name__}")
    return payload


def _check_keys(payload: dict, kind: str, required: frozenset, optional: frozenset) -> None:
    keys = set(payload)
    missing = required - keys
    if missing:
        raise SchemaError(f"{kind} payload is missing keys {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise SchemaError(f"{kind} payload has unknown keys {sorted(unknown)}")


def _check_version(payload: dict, kind: str) -> None:
    version = payload.get("schema_version")
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise SchemaError(
            f"{kind} payload has schema_version {version!r}; "
            f"this library speaks versions {sorted(SUPPORTED_SCHEMA_VERSIONS)}"
        )


def _check_instance_version(kind: str, version) -> None:
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise SchemaError(
            f"{kind} schema_version {version!r} is not one of the "
            f"supported versions {sorted(SUPPORTED_SCHEMA_VERSIONS)}"
        )


def _check_kind(payload: dict, kind: str) -> None:
    declared = payload.get("kind", kind)
    if declared != kind:
        raise SchemaError(f"expected a {kind!r} payload, got kind {declared!r}")


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


def _resolve_tech(
    overrides: tuple[tuple[str, object], ...], base: TechnologyParams | None = None
) -> TechnologyParams:
    base = base or default_tech()
    if not overrides:
        return base
    return dataclasses.replace(base, **dict(overrides))


# ----------------------------------------------------------------------
# Leaf serializers: spec, metrics, cycle stats
# ----------------------------------------------------------------------
def spec_to_dict(spec: DeconvSpec) -> dict:
    """A :class:`DeconvSpec` as a flat JSON mapping."""
    return {f.name: getattr(spec, f.name) for f in fields(spec)}


def spec_from_dict(payload) -> DeconvSpec:
    """Rebuild a :class:`DeconvSpec`; shape errors become SchemaError."""
    payload = _require_mapping(payload, "spec")
    names = frozenset(f.name for f in fields(DeconvSpec))
    required = frozenset(
        f.name for f in fields(DeconvSpec)
        if f.default is dataclasses.MISSING
    )
    _check_keys(payload, "spec", required, names - required)
    try:
        return DeconvSpec(**payload)
    except Exception as exc:
        raise SchemaError(f"invalid spec payload: {exc}") from exc


def _breakdown_to_dict(breakdown) -> dict:
    return breakdown.as_dict()


def _breakdown_from_dict(payload, cls):
    payload = _require_mapping(payload, cls.__name__)
    names = frozenset(f.name for f in fields(cls))
    _check_keys(payload, cls.__name__, frozenset(), names)
    try:
        return cls(**{k: float(v) for k, v in payload.items()})
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"invalid {cls.__name__} payload: {exc}") from exc


def metrics_to_dict(metrics: DesignMetrics) -> dict:
    """A :class:`DesignMetrics` as nested JSON mappings."""
    return {
        "design": metrics.design,
        "layer": metrics.layer,
        "cycles": metrics.cycles,
        "latency": _breakdown_to_dict(metrics.latency),
        "energy": _breakdown_to_dict(metrics.energy),
        "area": _breakdown_to_dict(metrics.area),
    }


def metrics_from_dict(payload) -> DesignMetrics:
    """Rebuild a :class:`DesignMetrics` from :func:`metrics_to_dict`."""
    payload = _require_mapping(payload, "metrics")
    _check_keys(
        payload,
        "metrics",
        frozenset({"design", "layer", "cycles", "latency", "energy", "area"}),
        frozenset(),
    )
    return DesignMetrics(
        design=str(payload["design"]),
        layer=str(payload["layer"]),
        cycles=int(payload["cycles"]),
        latency=_breakdown_from_dict(payload["latency"], LatencyBreakdown),
        energy=_breakdown_from_dict(payload["energy"], EnergyBreakdown),
        area=_breakdown_from_dict(payload["area"], AreaBreakdown),
    )


def cycle_stats_to_dict(stats: CycleStats) -> dict:
    """A :class:`CycleStats` as a JSON mapping (counters become a dict)."""
    return {
        "design": stats.design,
        "layer": stats.layer,
        "fold": stats.fold,
        "cycles": stats.cycles,
        "counters": dict(stats.counters),
    }


def cycle_stats_from_dict(payload) -> CycleStats:
    """Rebuild a :class:`CycleStats` from :func:`cycle_stats_to_dict`."""
    payload = _require_mapping(payload, "cycle_stats")
    _check_keys(
        payload,
        "cycle_stats",
        frozenset({"design", "layer", "fold", "cycles", "counters"}),
        frozenset(),
    )
    counters = _require_mapping(payload["counters"], "cycle_stats.counters")
    return CycleStats(
        design=str(payload["design"]),
        layer=str(payload["layer"]),
        fold=int(payload["fold"]),
        cycles=int(payload["cycles"]),
        counters=tuple(sorted((str(k), int(v)) for k, v in counters.items())),
    )


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
class EvaluationRequest:
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

    def resolved_tech(self, base: TechnologyParams | None = None) -> TechnologyParams:
        """The concrete technology after applying the overrides."""
        return _resolve_tech(self.tech_overrides, base)

    def to_dict(self) -> dict:
        return {
            "kind": "evaluation_request",
            "schema_version": self.schema_version,
            "layer": self.layer,
            "spec": None if self.spec is None else spec_to_dict(self.spec),
            "designs": list(self.designs),
            "fold": self.fold,
            "tech_overrides": dict(self.tech_overrides),
            "trace": self.trace,
            "layer_name": self.layer_name,
        }

    @classmethod
    def from_dict(cls, payload) -> "EvaluationRequest":
        payload = _require_mapping(payload, "evaluation_request")
        _check_kind(payload, "evaluation_request")
        _check_version(payload, "evaluation_request")
        _check_keys(
            payload,
            "evaluation_request",
            frozenset({"schema_version"}),
            frozenset(
                {"kind", "layer", "spec", "designs", "fold", "tech_overrides",
                 "trace", "layer_name"}
            ),
        )
        spec = payload.get("spec")
        return cls(
            layer=payload.get("layer"),
            spec=None if spec is None else spec_from_dict(spec),
            designs=tuple(payload.get("designs", ())),
            fold=payload.get("fold"),
            tech_overrides=payload.get("tech_overrides", ()),
            trace=bool(payload.get("trace", False)),
            layer_name=str(payload.get("layer_name", "")),
            schema_version=payload["schema_version"],
        )


@dataclass(frozen=True)
class EvaluationResult:
    """Per-design metrics (and optional cycle stats) for one layer.

    Attributes:
        layer: the evaluated layer's label.
        designs: canonical design names, in evaluation order.
        metrics: one :class:`DesignMetrics` per design.
        cycle_stats: cycle-level stats aligned with ``designs`` when the
            request asked for a trace (``None`` per design without a
            cycle engine); empty tuple otherwise.
    """

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

    def to_dict(self) -> dict:
        return {
            "kind": "evaluation_result",
            "schema_version": self.schema_version,
            "layer": self.layer,
            "designs": list(self.designs),
            "metrics": [metrics_to_dict(m) for m in self.metrics],
            "cycle_stats": [
                None if s is None else cycle_stats_to_dict(s) for s in self.cycle_stats
            ],
        }

    @classmethod
    def from_dict(cls, payload) -> "EvaluationResult":
        payload = _require_mapping(payload, "evaluation_result")
        _check_kind(payload, "evaluation_result")
        _check_version(payload, "evaluation_result")
        _check_keys(
            payload,
            "evaluation_result",
            frozenset({"schema_version", "layer", "designs", "metrics"}),
            frozenset({"kind", "cycle_stats"}),
        )
        return cls(
            layer=str(payload["layer"]),
            designs=tuple(str(d) for d in payload["designs"]),
            metrics=tuple(metrics_from_dict(m) for m in payload["metrics"]),
            cycle_stats=tuple(
                None if s is None else cycle_stats_from_dict(s)
                for s in payload.get("cycle_stats", ())
            ),
            schema_version=payload["schema_version"],
        )


# ----------------------------------------------------------------------
# Stride sweep
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepRequest:
    """The Sec. III-C stride-speedup sweep, parameterized.

    Attributes mirror :func:`repro.eval.sweeps.stride_speedup_sweep`.
    """

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

    def resolved_tech(self, base: TechnologyParams | None = None) -> TechnologyParams:
        """The concrete technology after applying the overrides."""
        return _resolve_tech(self.tech_overrides, base)

    def to_dict(self) -> dict:
        return {
            "kind": "sweep_request",
            "schema_version": self.schema_version,
            "strides": list(self.strides),
            "input_size": self.input_size,
            "channels": self.channels,
            "filters": self.filters,
            "fold": self.fold,
            "tech_overrides": dict(self.tech_overrides),
        }

    @classmethod
    def from_dict(cls, payload) -> "SweepRequest":
        payload = _require_mapping(payload, "sweep_request")
        _check_kind(payload, "sweep_request")
        _check_version(payload, "sweep_request")
        _check_keys(
            payload,
            "sweep_request",
            frozenset({"schema_version"}),
            frozenset(
                {"kind", "strides", "input_size", "channels", "filters", "fold",
                 "tech_overrides"}
            ),
        )
        kwargs = {
            name: payload[name]
            for name in ("strides", "input_size", "channels", "filters", "fold")
            if name in payload
        }
        if "strides" in kwargs:
            kwargs["strides"] = tuple(kwargs["strides"])
        return cls(
            tech_overrides=payload.get("tech_overrides", ()),
            schema_version=payload["schema_version"],
            **kwargs,
        )


@dataclass(frozen=True)
class SweepPoint:
    """One measured stride of the sweep (mirrors ``StrideSweepPoint``)."""

    stride: int
    modes: int
    cycles_red: int
    cycles_zp: int
    speedup: float

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload) -> "SweepPoint":
        payload = _require_mapping(payload, "sweep_point")
        names = frozenset(f.name for f in fields(cls))
        _check_keys(payload, "sweep_point", names, frozenset())
        return cls(
            stride=int(payload["stride"]),
            modes=int(payload["modes"]),
            cycles_red=int(payload["cycles_red"]),
            cycles_zp=int(payload["cycles_zp"]),
            speedup=float(payload["speedup"]),
        )


@dataclass(frozen=True)
class ErrorInfo:
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

    error_type: str
    message: str
    retryable: bool = False
    source: str = ""
    retry_after_s: float | None = None
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

    def to_dict(self) -> dict:
        payload = {
            "kind": "error_info",
            "schema_version": self.schema_version,
            "error_type": self.error_type,
            "message": self.message,
            "retryable": self.retryable,
            "source": self.source,
        }
        if self.retry_after_s is not None:
            payload["retry_after_s"] = self.retry_after_s
        return payload

    @classmethod
    def from_dict(cls, payload) -> "ErrorInfo":
        payload = _require_mapping(payload, "error_info")
        _check_kind(payload, "error_info")
        _check_version(payload, "error_info")
        _check_keys(
            payload,
            "error_info",
            frozenset({"schema_version", "error_type", "message"}),
            frozenset({"kind", "retryable", "source", "retry_after_s"}),
        )
        return cls(
            error_type=payload["error_type"],
            message=payload["message"],
            retryable=bool(payload.get("retryable", False)),
            source=str(payload.get("source", "")),
            retry_after_s=payload.get("retry_after_s"),
            schema_version=payload["schema_version"],
        )


@dataclass(frozen=True)
class SweepResult:
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

    points: tuple[SweepPoint, ...]
    fitted_exponent: float | None = None
    failures: tuple[ErrorInfo, ...] = ()
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

    def to_dict(self) -> dict:
        payload = {
            "kind": "sweep_result",
            "schema_version": self.schema_version,
            "points": [p.to_dict() for p in self.points],
            "fitted_exponent": self.fitted_exponent,
        }
        if self.failures:
            payload["failures"] = [f.to_dict() for f in self.failures]
        return payload

    @classmethod
    def from_dict(cls, payload) -> "SweepResult":
        payload = _require_mapping(payload, "sweep_result")
        _check_kind(payload, "sweep_result")
        _check_version(payload, "sweep_result")
        _check_keys(
            payload,
            "sweep_result",
            frozenset({"schema_version", "points"}),
            frozenset({"kind", "fitted_exponent", "failures"}),
        )
        exponent = payload.get("fitted_exponent")
        return cls(
            points=tuple(SweepPoint.from_dict(p) for p in payload["points"]),
            fitted_exponent=None if exponent is None else float(exponent),
            failures=tuple(
                ErrorInfo.from_dict(f) for f in payload.get("failures", ())
            ),
            schema_version=payload["schema_version"],
        )


# ----------------------------------------------------------------------
# Whole-network evaluation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NetworkRequest:
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

    def resolved_tech(self, base: TechnologyParams | None = None) -> TechnologyParams:
        """The concrete technology after applying the overrides."""
        return _resolve_tech(self.tech_overrides, base)

    def to_dict(self) -> dict:
        return {
            "kind": "network_request",
            "schema_version": self.schema_version,
            "network": self.network,
            "designs": list(self.designs),
            "batch": self.batch,
            "input_height": self.input_height,
            "input_width": self.input_width,
            "seed": self.seed,
            "tech_overrides": dict(self.tech_overrides),
        }

    @classmethod
    def from_dict(cls, payload) -> "NetworkRequest":
        payload = _require_mapping(payload, "network_request")
        _check_kind(payload, "network_request")
        _check_version(payload, "network_request")
        _check_keys(
            payload,
            "network_request",
            frozenset({"schema_version", "network"}),
            frozenset(
                {"kind", "designs", "batch", "input_height", "input_width", "seed",
                 "tech_overrides"}
            ),
        )
        kwargs = {
            name: payload[name]
            for name in ("batch", "input_height", "input_width", "seed")
            if name in payload
        }
        return cls(
            network=str(payload["network"]),
            designs=tuple(payload.get("designs", ())),
            tech_overrides=payload.get("tech_overrides", ()),
            schema_version=payload["schema_version"],
            **kwargs,
        )


@dataclass(frozen=True)
class NetworkDesignSummary:
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

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload) -> "NetworkDesignSummary":
        payload = _require_mapping(payload, "network_design_summary")
        names = frozenset(f.name for f in fields(cls))
        _check_keys(payload, "network_design_summary", names, frozenset())
        values = {name: payload[name] for name in names}
        values["design"] = str(values["design"])
        for name in names - {"design"}:
            values[name] = float(values[name])
        return cls(**values)


@dataclass(frozen=True)
class NetworkResult:
    """Whole-network evaluation: per-layer metrics plus design roll-ups.

    Attributes:
        network: the evaluated network's name.
        batch: pipeline batch the summaries assume.
        layers: deconv layer names in execution order.
        designs: canonical design names evaluated.
        layer_results: one :class:`EvaluationResult` per layer.
        summaries: one :class:`NetworkDesignSummary` per design.
    """

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

    def to_dict(self) -> dict:
        return {
            "kind": "network_result",
            "schema_version": self.schema_version,
            "network": self.network,
            "batch": self.batch,
            "layers": list(self.layers),
            "designs": list(self.designs),
            "layer_results": [r.to_dict() for r in self.layer_results],
            "summaries": [s.to_dict() for s in self.summaries],
        }

    @classmethod
    def from_dict(cls, payload) -> "NetworkResult":
        payload = _require_mapping(payload, "network_result")
        _check_kind(payload, "network_result")
        _check_version(payload, "network_result")
        _check_keys(
            payload,
            "network_result",
            frozenset(
                {"schema_version", "network", "batch", "layers", "designs",
                 "layer_results", "summaries"}
            ),
            frozenset({"kind"}),
        )
        return cls(
            network=str(payload["network"]),
            batch=int(payload["batch"]),
            layers=tuple(str(n) for n in payload["layers"]),
            designs=tuple(str(n) for n in payload["designs"]),
            layer_results=tuple(
                EvaluationResult.from_dict(r) for r in payload["layer_results"]
            ),
            summaries=tuple(
                NetworkDesignSummary.from_dict(s) for s in payload["summaries"]
            ),
            schema_version=payload["schema_version"],
        )


# ----------------------------------------------------------------------
# Device-fidelity frontier: accuracy vs energy vs drift, per design
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FidelityRequest:
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

    def resolved_tech(self, base: TechnologyParams | None = None) -> TechnologyParams:
        """The concrete technology after applying the overrides."""
        return _resolve_tech(self.tech_overrides, base)

    def to_dict(self) -> dict:
        return {
            "kind": "fidelity_request",
            "schema_version": self.schema_version,
            "layer": self.layer,
            "spec": None if self.spec is None else spec_to_dict(self.spec),
            "designs": list(self.designs),
            "seeds": list(self.seeds),
            "times": list(self.times),
            "nu": self.nu,
            "programming_sigma": self.programming_sigma,
            "read_noise_sigma": self.read_noise_sigma,
            "stuck_at_rate": self.stuck_at_rate,
            "adc_bits": self.adc_bits,
            "max_rows": self.max_rows,
            "max_cols": self.max_cols,
            "tech_overrides": dict(self.tech_overrides),
            "layer_name": self.layer_name,
        }

    @classmethod
    def from_dict(cls, payload) -> "FidelityRequest":
        payload = _require_mapping(payload, "fidelity_request")
        _check_kind(payload, "fidelity_request")
        _check_version(payload, "fidelity_request")
        _check_keys(
            payload,
            "fidelity_request",
            frozenset({"schema_version"}),
            frozenset(
                {"kind", "layer", "spec", "designs", "seeds", "times", "nu",
                 "programming_sigma", "read_noise_sigma", "stuck_at_rate",
                 "adc_bits", "max_rows", "max_cols", "tech_overrides",
                 "layer_name"}
            ),
        )
        spec = payload.get("spec")
        kwargs = {
            name: payload[name]
            for name in (
                "nu", "programming_sigma", "read_noise_sigma", "stuck_at_rate",
                "adc_bits", "max_rows", "max_cols",
            )
            if name in payload
        }
        if "seeds" in payload:
            kwargs["seeds"] = tuple(payload["seeds"])
        if "times" in payload:
            kwargs["times"] = tuple(payload["times"])
        return cls(
            layer=payload.get("layer"),
            spec=None if spec is None else spec_from_dict(spec),
            designs=tuple(payload.get("designs", ())),
            tech_overrides=payload.get("tech_overrides", ()),
            layer_name=str(payload.get("layer_name", "")),
            schema_version=payload["schema_version"],
            **kwargs,
        )


@dataclass(frozen=True)
class FidelityPoint:
    """One Monte-Carlo sample of the frontier (mirrors
    :class:`~repro.eval.parallel.FidelityStats`, labels dropped)."""

    design: str
    seed: int
    time_s: float
    rms_error: float
    mean_abs_error: float
    max_abs_error: float
    stuck_fraction: float

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload) -> "FidelityPoint":
        payload = _require_mapping(payload, "fidelity_point")
        names = frozenset(f.name for f in fields(cls))
        _check_keys(payload, "fidelity_point", names, frozenset())
        return cls(
            design=str(payload["design"]),
            seed=int(payload["seed"]),
            time_s=float(payload["time_s"]),
            rms_error=float(payload["rms_error"]),
            mean_abs_error=float(payload["mean_abs_error"]),
            max_abs_error=float(payload["max_abs_error"]),
            stuck_fraction=float(payload["stuck_fraction"]),
        )


@dataclass(frozen=True)
class FidelityResult:
    """The accuracy-vs-energy-vs-drift frontier for one layer.

    Attributes:
        layer: the evaluated layer's label.
        designs: canonical design names, in evaluation order.
        energy_j: analytic per-layer energy per design (the frontier's
            energy axis, from :class:`~repro.arch.breakdown.DesignMetrics`).
        points: every Monte-Carlo sample, design-major then in the
            request's ``seeds x times`` order.
    """

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

    def energy_for(self, design: str) -> float:
        """The analytic energy axis value of one design."""
        for name, energy in zip(self.designs, self.energy_j):
            if name == design:
                return energy
        raise KeyError(f"design {design!r} not in result ({self.designs})")

    def to_dict(self) -> dict:
        return {
            "kind": "fidelity_result",
            "schema_version": self.schema_version,
            "layer": self.layer,
            "designs": list(self.designs),
            "energy_j": list(self.energy_j),
            "points": [p.to_dict() for p in self.points],
        }

    @classmethod
    def from_dict(cls, payload) -> "FidelityResult":
        payload = _require_mapping(payload, "fidelity_result")
        _check_kind(payload, "fidelity_result")
        _check_version(payload, "fidelity_result")
        _check_keys(
            payload,
            "fidelity_result",
            frozenset({"schema_version", "layer", "designs", "energy_j", "points"}),
            frozenset({"kind"}),
        )
        return cls(
            layer=str(payload["layer"]),
            designs=tuple(str(d) for d in payload["designs"]),
            energy_j=tuple(float(e) for e in payload["energy_j"]),
            points=tuple(FidelityPoint.from_dict(p) for p in payload["points"]),
            schema_version=payload["schema_version"],
        )


# ----------------------------------------------------------------------
# Generic CLI envelope
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CommandPayload:
    """Envelope for CLI subcommands without a dedicated result type.

    ``data`` must be a JSON-native tree (the CLI builds it that way);
    ``results`` carries structured :class:`EvaluationResult` entries for
    grid-backed commands; ``text`` preserves the rendered table so the
    payload is lossless versus the non-``--json`` output.
    """

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

    def to_dict(self) -> dict:
        return {
            "kind": "command_result",
            "schema_version": self.schema_version,
            "command": self.command,
            "data": self.data,
            "results": [r.to_dict() for r in self.results],
            "text": self.text,
        }

    @classmethod
    def from_dict(cls, payload) -> "CommandPayload":
        payload = _require_mapping(payload, "command_result")
        _check_kind(payload, "command_result")
        _check_version(payload, "command_result")
        _check_keys(
            payload,
            "command_result",
            frozenset({"schema_version", "command"}),
            frozenset({"kind", "data", "results", "text"}),
        )
        return cls(
            command=str(payload["command"]),
            data=payload.get("data"),
            results=tuple(
                EvaluationResult.from_dict(r) for r in payload.get("results", ())
            ),
            text=str(payload.get("text", "")),
            schema_version=payload["schema_version"],
        )


#: ``kind`` discriminator -> payload class, for :func:`payload_from_dict`.
PAYLOAD_KINDS: dict[str, type] = {
    "evaluation_request": EvaluationRequest,
    "evaluation_result": EvaluationResult,
    "sweep_request": SweepRequest,
    "sweep_result": SweepResult,
    "network_request": NetworkRequest,
    "network_result": NetworkResult,
    "fidelity_request": FidelityRequest,
    "fidelity_result": FidelityResult,
    "command_result": CommandPayload,
    "error_info": ErrorInfo,
}


def payload_from_dict(payload):
    """Rebuild any schema object from its ``to_dict`` form.

    Dispatches on the embedded ``"kind"`` discriminator; unknown or
    missing kinds raise :class:`~repro.errors.SchemaError`.
    """
    payload = _require_mapping(payload, "api")
    kind = payload.get("kind")
    cls = PAYLOAD_KINDS.get(kind)
    if cls is None:
        raise SchemaError(
            f"unknown payload kind {kind!r}; expected one of {sorted(PAYLOAD_KINDS)}"
        )
    return cls.from_dict(payload)


def _downgrade_tree(node, version: int):
    if isinstance(node, dict):
        rewritten = {}
        for key, value in node.items():
            if version < 2 and key == "retry_after_s":
                continue
            rewritten[key] = _downgrade_tree(value, version)
        if "schema_version" in rewritten:
            rewritten["schema_version"] = version
        return rewritten
    if isinstance(node, list):
        return [_downgrade_tree(item, version) for item in node]
    return node


def downgrade_payload(wire, version: int) -> dict:
    """Rewrite a ``to_dict`` tree for an older-generation client.

    The serving front door answers a client at the schema version the
    client spoke: this recursively stamps ``schema_version=version`` on
    every nested payload mapping and drops keys that generation cannot
    parse (``retry_after_s`` below version 2), so a strict v1
    ``from_dict`` accepts the result.  The input tree is not mutated.
    """
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise SchemaError(
            f"cannot downgrade to schema_version {version!r}; supported "
            f"versions are {sorted(SUPPORTED_SCHEMA_VERSIONS)}"
        )
    return _downgrade_tree(_require_mapping(wire, "api"), version)
