"""RED: the paper's contribution.

* :mod:`repro.core.mapping` — pixel-wise mapping (Eq. 1): kernel ->
  sub-crossbar tensor (SCT).
* :mod:`repro.core.dataflow` — zero-skipping data flow (Fig. 5c): the
  per-cycle schedule feeding only non-zero pixels.
* :mod:`repro.core.fold` — the area-efficient fold (Eq. 2, Sec. III-C).
* :mod:`repro.core.red_design` — the full RED accelerator design.
* :mod:`repro.core.tradeoff` — the Sec. III-C area/parallelism explorer.
"""
