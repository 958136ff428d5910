"""Parameter sweeps for claims stated in prose rather than figures.

Sec. III-C: "The number of computation modes is stride^2, indicating the
speed-up brought by RED quadratically increases with the stride."
:func:`stride_speedup_sweep` measures that curve and
:func:`quadratic_fit_exponent` fits its exponent.
"""

from __future__ import annotations

from repro.api.schema import SweepPoint
from repro.arch.tech import TechnologyParams
from repro.errors import ParameterError

#: Backwards-compatible name: the sweep's point type now lives in the
#: versioned API schema (:class:`repro.api.schema.SweepPoint`).
StrideSweepPoint = SweepPoint


def stride_speedup_sweep(
    strides: tuple[int, ...] = (1, 2, 4, 8),
    input_size: int = 8,
    channels: int = 64,
    filters: int = 32,
    tech: TechnologyParams | None = None,
    fold: int | str = 1,
) -> list[StrideSweepPoint]:
    """Measure RED's speedup as the stride grows (FCN convention K=2s).

    Uses the FCN kernel rule ``K = 2s, p = s/2`` so the kernel grows with
    the stride exactly as the paper describes, and ``fold=1`` so the raw
    ``stride^2`` parallelism is visible (pass ``fold='auto'`` to see the
    folded, area-capped variant).

    Delegates to :meth:`repro.api.service.RedService.sweep_points`, the
    single evaluation path.  The service is scoped to the call
    (context-managed) and closed before returning; a caller repeating
    sweeps holds a ``RedService()`` and calls its ``sweep_points``
    instead, so the service's analytic memo serves the repeats.
    """
    from repro.api.service import RedService

    with RedService() as service:
        return service.sweep_points(
            strides=tuple(strides),
            input_size=input_size,
            channels=channels,
            filters=filters,
            tech=tech,
            fold=fold,
        )


def quadratic_fit_exponent(points: list[StrideSweepPoint]) -> float:
    """Least-squares exponent ``b`` of ``speedup ~ stride^b``.

    The paper's claim corresponds to ``b ~= 2`` (the per-cycle overheads
    pull it slightly below).
    """
    import numpy as np

    data = [(p.stride, p.speedup) for p in points if p.stride > 1]
    if len(data) < 2:
        raise ParameterError("need at least two strides > 1 for the fit")
    xs = np.log([s for s, _ in data])
    ys = np.log([v for _, v in data])
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)
