"""The repository benchmark: seeded workloads, end-to-end and per-layer metrics.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root (see README.md in
this directory).  The modules here drive the program only through its
public functions; the traced run wraps those functions from the
outside (:mod:`perfbench.tracing`) and changes nothing under ``src/``.
"""
