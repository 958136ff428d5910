"""The design registry: the single name-to-design dispatch.

Before this module existed every entry point — the CLI, the evaluation
grid, the network mapper — hard-coded the three paper designs by string
comparison.  The registry replaces that with declarative registration:

* :func:`register_design` — decorator that registers a factory (a
  :class:`~repro.designs.base.DeconvDesign` subclass or a
  ``(spec, tech, **kwargs) -> DeconvDesign`` callable) under a canonical
  name plus optional aliases.
* :func:`available_designs` — canonical names in registration order; this
  *is* the presentation order every figure/table uses (baseline first).
* :func:`build_design` — instantiate a registered design for a layer.
* :func:`resolve_design` / :func:`get_design` — alias-tolerant lookup.

Registering a fourth design from user code::

    from repro.api.registry import register_design
    from repro.designs.base import DeconvDesign

    @register_design("my-design", aliases=("mine",))
    class MyDesign(DeconvDesign):
        name = "my-design"
        ...

The class is returned unchanged; from then on ``"my-design"`` is a valid
design name in every request, sweep, CLI invocation and cache key.

Process caveat: registration is per-process.  The serving plane's
shard processes (``repro serve --shards N``) are forked when the server
starts, so they see the designs registered before that point and none
registered after — register plugin designs at import time.  The
built-ins are always available: they register when this module is
imported.

This module is deliberately a leaf: it imports only :mod:`repro.errors`
at module scope (the built-in factories import their design classes
lazily), so anything can import it without dragging in the whole
evaluation stack.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

from repro.errors import DuplicateDesignError, ParameterError, UnknownDesignError


@dataclass(frozen=True)
class DesignEntry:
    """One registered accelerator design.

    Attributes:
        name: canonical design name (the name used in cache keys,
            figures and serialized payloads).
        factory: callable producing a design instance.  Called as
            ``factory(spec, tech)`` — plus ``fold=...`` when
            ``accepts_fold`` is true.
        aliases: alternative names accepted by :func:`resolve_design`
            (matched case-insensitively).
        accepts_fold: the design takes the Eq. 2 ``fold`` parameter;
            designs without it share cache entries across folds.
        supports_trace: the design has a cycle-level engine, so
            trace/cycle statistics can be computed and cached for it.
        baseline: the design every paper figure normalizes against.
        description: one-line summary for introspection output.
        perf_batch: optional vectorized perf-input hook, called as
            ``perf_batch(arrays, folds, tech, layer_names)`` and
            returning a :class:`~repro.arch.metrics_batch.PerfInputBatch`
            with one row per row of ``arrays``, derived closed-form (no
            per-job design objects).  ``arrays`` is a
            :class:`~repro.deconv.shapes.SpecArrays` row slice of the
            pack the vectorized plane (:mod:`repro.eval.vectorized`)
            builds once per technology: its derived counts (output
            sizes, taps, ``useful_macs``) are shared with the other
            designs' slices, so read them instead of recomputing them.
            ``folds`` (``'auto'`` or ints, ``None`` already mapped to
            ``'auto'``) and ``layer_names`` are per-row lists.  The
            plane joins every design's batch with
            :meth:`~repro.arch.metrics_batch.PerfInputBatch.concat` and
            evaluates them in one call, so a hook must keep the dtypes
            :class:`~repro.arch.metrics_batch.PerfInputBatch` documents.
            Designs without a hook fall back to the scalar per-job path.
        fidelity_profile: optional Monte-Carlo fidelity hook, called as
            ``fidelity_profile(spec, tech, adc_bits=..., max_rows=...,
            max_cols=...)`` and returning the
            :class:`~repro.reram.batch.FidelityProfile` the design
            exposes to the device-fidelity plane.  ``None`` falls back
            to :func:`~repro.reram.batch.derived_fidelity_profile`
            (probe array from the design's perf geometry), so every
            registered design appears in the fidelity frontier
            automatically.
    """

    name: str
    factory: Callable[..., object]
    aliases: tuple[str, ...] = ()
    accepts_fold: bool = False
    supports_trace: bool = False
    baseline: bool = False
    description: str = ""
    perf_batch: Callable[..., object] | None = None
    fidelity_profile: Callable[..., object] | None = None


#: Canonical name -> entry, in registration order (dicts preserve it).
_REGISTRY: dict[str, DesignEntry] = {}
#: Lower-cased alias or canonical name -> canonical name.
_LOOKUP: dict[str, str] = {}


def register_design(
    name: str,
    *,
    aliases: tuple[str, ...] = (),
    accepts_fold: bool = False,
    supports_trace: bool = False,
    baseline: bool = False,
    description: str = "",
    perf_batch: Callable[..., object] | None = None,
    fidelity_profile: Callable[..., object] | None = None,
):
    """Class/function decorator registering a design factory under ``name``.

    Raises:
        DuplicateDesignError: the name or an alias is already taken.
        ParameterError: the name is empty or not a string.
    """
    if not isinstance(name, str) or not name.strip():
        raise ParameterError(f"design name must be a non-empty string, got {name!r}")

    def decorator(factory):
        entry = DesignEntry(
            name=name,
            factory=factory,
            aliases=tuple(aliases),
            accepts_fold=accepts_fold,
            supports_trace=supports_trace,
            baseline=baseline,
            description=description or (inspect.getdoc(factory) or "").split("\n")[0],
            perf_batch=perf_batch,
            fidelity_profile=fidelity_profile,
        )
        claimed = [name, *entry.aliases]
        for label in claimed:
            owner = _LOOKUP.get(label.lower())
            if owner is not None:
                raise DuplicateDesignError(
                    f"design name/alias {label!r} is already registered "
                    f"(by design {owner!r})"
                )
        if baseline:
            for existing in _REGISTRY.values():
                if existing.baseline:
                    raise DuplicateDesignError(
                        f"design {existing.name!r} is already the baseline; "
                        "only one design can be the normalization reference"
                    )
        _REGISTRY[name] = entry
        for label in claimed:
            _LOOKUP[label.lower()] = name
        return factory

    return decorator


def unregister_design(name: str) -> None:
    """Remove a registered design (plugin teardown / test cleanup)."""
    canonical = resolve_design(name)
    entry = _REGISTRY.pop(canonical)
    for label in (entry.name, *entry.aliases):
        _LOOKUP.pop(label.lower(), None)


def available_designs() -> tuple[str, ...]:
    """Canonical design names in registration order (baseline first)."""
    return tuple(_REGISTRY)


def design_entries() -> tuple[DesignEntry, ...]:
    """Every registered entry, in registration order."""
    return tuple(_REGISTRY.values())


def resolve_design(name: str) -> str:
    """Map a name or alias to the canonical design name.

    Raises:
        UnknownDesignError: nothing is registered under ``name``.
    """
    if name in _REGISTRY:
        return name
    canonical = _LOOKUP.get(str(name).lower())
    if canonical is None:
        raise UnknownDesignError(
            f"unknown design {name!r}; choose from {available_designs()}"
        )
    return canonical


def get_design(name: str) -> DesignEntry:
    """The registry entry behind a name or alias."""
    return _REGISTRY[resolve_design(name)]


def baseline_design() -> str:
    """The canonical name of the normalization baseline (zero-padding)."""
    for entry in _REGISTRY.values():
        if entry.baseline:
            return entry.name
    raise UnknownDesignError("no baseline design is registered")


def build_design(name: str, spec, tech=None, fold=None):
    """Instantiate the design ``name`` describes for one layer.

    Args:
        name: canonical design name or alias.
        spec: the :class:`~repro.deconv.shapes.DeconvSpec`.
        tech: technology parameters (default: :func:`default_tech`).
        fold: Eq. 2 fold for fold-aware designs (``None`` -> ``'auto'``);
            silently ignored by designs that do not take it, mirroring
            the old hard-coded dispatch.
    """
    entry = get_design(name)
    if tech is None:
        from repro.arch.tech import default_tech

        tech = default_tech()
    if entry.accepts_fold:
        return entry.factory(spec, tech, fold="auto" if fold is None else fold)
    return entry.factory(spec, tech)


# ----------------------------------------------------------------------
# Built-in designs (paper Fig. 3a, Fig. 3b, and RED itself).  Factories
# and batch hooks import their classes lazily so this module stays a
# leaf.
# ----------------------------------------------------------------------
def _zero_padding_perf_batch(arrays, folds=None, tech=None, layer_names=None):
    from repro.designs.zero_padding_design import ZeroPaddingDesign

    return ZeroPaddingDesign.perf_input_batch(arrays, folds, tech, layer_names)


def _padding_free_perf_batch(arrays, folds=None, tech=None, layer_names=None):
    from repro.designs.padding_free_design import PaddingFreeDesign

    return PaddingFreeDesign.perf_input_batch(arrays, folds, tech, layer_names)


def _red_perf_batch(arrays, folds, tech=None, layer_names=None):
    from repro.core.red_design import REDDesign

    return REDDesign.perf_input_batch(arrays, folds, tech, layer_names)


def _derived_fidelity_hook(name):
    """A fidelity hook bound to the default perf-geometry derivation."""

    def hook(spec, tech=None, *, adc_bits=None, max_rows=128, max_cols=128):
        from repro.reram.batch import derived_fidelity_profile

        return derived_fidelity_profile(
            name, spec, tech,
            adc_bits=adc_bits, max_rows=max_rows, max_cols=max_cols,
        )

    return hook


@register_design(
    "zero-padding",
    aliases=("zp", "zero_padding"),
    baseline=True,
    description="Algorithm 1 baseline: zero-inserted input, dense crossbar",
    perf_batch=_zero_padding_perf_batch,
    fidelity_profile=_derived_fidelity_hook("zero-padding"),
)
def _build_zero_padding(spec, tech):
    from repro.designs.zero_padding_design import ZeroPaddingDesign

    return ZeroPaddingDesign(spec, tech)


@register_design(
    "padding-free",
    aliases=("pf", "padding_free"),
    description="Algorithm 2 baseline: wide-row matrix, overlap-add + crop",
    perf_batch=_padding_free_perf_batch,
    fidelity_profile=_derived_fidelity_hook("padding-free"),
)
def _build_padding_free(spec, tech):
    from repro.designs.padding_free_design import PaddingFreeDesign

    return PaddingFreeDesign(spec, tech)


@register_design(
    "RED",
    aliases=("red",),
    accepts_fold=True,
    supports_trace=True,
    description="Pixel-wise mapped, zero-skipping deconvolution (the paper)",
    perf_batch=_red_perf_batch,
    fidelity_profile=_derived_fidelity_hook("RED"),
)
def _build_red(spec, tech, fold="auto"):
    from repro.core.red_design import REDDesign

    return REDDesign(spec, tech, fold=fold)
