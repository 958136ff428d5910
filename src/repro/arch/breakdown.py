"""Table II breakdown containers.

The paper reports every result split into *array* (computation, wordline
driving, bitline driving) and *periphery* (multiplexer, decoder, read
circuit, shift adder) contributions:

    L_total = (L_wd + L_bd)_a + (L_dec + L_mux + L_rc + L_sa)_pp      (Eq. 3)
    E_total = (E_c + E_wd + E_bd)_a + (E_dec + E_mux + E_rc + E_sa)_pp (Eq. 4)

These dataclasses carry the per-component values with array/periphery
roll-ups and support elementwise arithmetic for normalization.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

#: (component, abbreviation, group) rows exactly as in Table II.
TABLE_II_COMPONENTS: tuple[tuple[str, str, str], ...] = (
    ("Computation", "c", "Array (a)"),
    ("Wordline Driving", "wd", "Array (a)"),
    ("Bitline Driving", "bd", "Array (a)"),
    ("Multiplexer", "mux", "Periphery (pp)"),
    ("Decoder", "dec", "Periphery (pp)"),
    ("Read Circuit / Integrated & Fire Circuit", "rc", "Periphery (pp)"),
    ("Shift Adder", "sa", "Periphery (pp)"),
)


@dataclass(frozen=True)
class _Breakdown:
    """Shared array/periphery accounting for latency, energy and area."""

    wordline: float = 0.0
    bitline: float = 0.0
    computation: float = 0.0
    decoder: float = 0.0
    mux: float = 0.0
    read_circuit: float = 0.0
    shift_adder: float = 0.0
    extra_adder: float = 0.0  # padding-free overlap-add (periphery)
    crop: float = 0.0         # padding-free crop unit (periphery)

    @property
    def array(self) -> float:
        """Array contribution: computation + WL driving + BL driving."""
        return self.computation + self.wordline + self.bitline

    @property
    def periphery(self) -> float:
        """Periphery contribution, including design-specific extra units."""
        return (
            self.decoder
            + self.mux
            + self.read_circuit
            + self.shift_adder
            + self.extra_adder
            + self.crop
        )

    @property
    def total(self) -> float:
        """Array + periphery."""
        return self.array + self.periphery

    def scaled(self, factor: float):
        """Return a copy with every component multiplied by ``factor``."""
        values = {f.name: getattr(self, f.name) * factor for f in fields(self)}
        return type(self)(**values)

    def as_dict(self) -> dict[str, float]:
        """Component name -> value mapping (no roll-ups)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def normalized_to(self, reference: "_Breakdown") -> dict[str, float]:
        """Each component as a fraction of ``reference.total``."""
        ref = reference.total
        if ref <= 0.0:
            raise ZeroDivisionError("reference breakdown has non-positive total")
        return {name: value / ref for name, value in self.as_dict().items()}


@dataclass(frozen=True)
class LatencyBreakdown(_Breakdown):
    """Per-component execution time in seconds (Eq. 3)."""


@dataclass(frozen=True)
class EnergyBreakdown(_Breakdown):
    """Per-component energy in joules (Eq. 4)."""


@dataclass(frozen=True)
class AreaBreakdown(_Breakdown):
    """Per-component silicon area in square metres (Fig. 9 accounting).

    ``computation`` holds the ReRAM cell array area; wordline/bitline hold
    the respective driver areas (counted as array in Fig. 9's split).
    """


@dataclass(frozen=True)
class DesignMetrics:
    """Full evaluation result for one (design, layer) pair."""

    design: str
    layer: str
    latency: LatencyBreakdown
    energy: EnergyBreakdown
    area: AreaBreakdown
    cycles: int

    def speedup_over(self, baseline: "DesignMetrics") -> float:
        """Latency ratio baseline/self (the paper's speedup definition)."""
        return baseline.latency.total / self.latency.total

    def energy_saving_over(self, baseline: "DesignMetrics") -> float:
        """Fractional energy saved vs baseline: ``1 - E_self / E_base``."""
        return 1.0 - self.energy.total / baseline.energy.total
