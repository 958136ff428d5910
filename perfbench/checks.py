"""Answer checks of the bulk paper pass against the paper's published results."""

from __future__ import annotations

from repro.eval.paper_targets import PAPER_TARGETS


def paper_checks(paper: dict, points_per_design: int) -> tuple[list[str], int]:
    """Report lines and the number of failed checks for one paper pass.

    Prints each Table-I layer's simulated speed-up and energy saving of
    RED over zero-padding, then the extremes beside their published
    values and the acceptance bands of
    :data:`repro.eval.paper_targets.PAPER_TARGETS`.  Also checks that
    each traced RED cycle count equals the analytic one, that every
    fidelity frontier holds ``points_per_design`` samples per design,
    and that RED beats the baseline on every network.
    """
    lines, failed = [], 0
    speedups, savings = [], []
    for result in paper["layers"]:
        red, base = result.metrics_for("RED"), result.metrics_for("zero-padding")
        speedups.append(red.speedup_over(base))
        savings.append(red.energy_saving_over(base))
        traced = [s for s in result.cycle_stats if s is not None and s.design == "RED"]
        cycles_ok = len(traced) == 1 and traced[0].cycles == red.cycles
        failed += not cycles_ok
        lines.append(
            f"  {result.layer:12s} speed-up {speedups[-1]:7.3f}x  energy saving "
            f"{savings[-1]:7.2%}  cycles {red.cycles} {'=' if cycles_ok else '!='} traced"
        )
    for key, value, scale, unit in (
        ("speedup_min", min(speedups), 1.0, "x"),
        ("speedup_max", max(speedups), 1.0, "x"),
        ("energy_saving_min", min(savings), 100.0, "%"),
        ("energy_saving_max", max(savings), 100.0, "%"),
    ):
        band = PAPER_TARGETS[key]
        inside = band.contains(value)
        failed += not inside
        lines.append(
            f"  {key:18s} simulated {value * scale:8.3f}{unit}  published {band.published:>7s}"
            f"  band [{band.low * scale:g}, {band.high * scale:g}]{unit}"
            f"  {'inside' if inside else 'OUTSIDE'}{'' if band.strict else ' (non-strict)'}"
        )
    for frontier in paper["frontiers"]:
        failed += any(
            len(frontier.points_for(design)) != points_per_design
            for design in frontier.designs
        )
    for network in paper["networks"]:
        failed += not network.summary_for("RED").speedup > 1.0
    return lines, failed
