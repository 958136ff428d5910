"""Evaluation harness: regenerates every table and figure in the paper.

* :mod:`repro.eval.harness` — runs the design x layer grid.
* :mod:`repro.eval.figures` — data series for Fig. 4, Fig. 7, Fig. 8, Fig. 9.
* :mod:`repro.eval.tables` — Table I / Table II renderers.
* :mod:`repro.eval.paper_targets` — the published numbers and the bands we
  assert against.
* :mod:`repro.eval.report` — formatted text/CSV emission.
* :mod:`repro.eval.parallel` — the sweep runners every sweep routes
  through: one in-process probe/compute/publish pipeline over the
  packed result store (vectorized plane by default, scalar oracle
  inline for designs without a batch hook).
* :mod:`repro.eval.vectorized` — struct-of-arrays analytic evaluation
  plane (one fused batch per technology, no per-job design objects).
* :mod:`repro.eval.sweeps` — prose-claim parameter sweeps.
"""
