"""Contract linter for the RED reproduction substrate.

A small :mod:`ast`-based static-analysis pass over this repository's own
source.  The substrate built across PRs 1-6 rests on invariants that
ordinary linters cannot see — the SeedSequence seeding contract, frozen
``schema_version``-tagged payloads, registry-only design dispatch, the
exactly-two-store-calls runner discipline, scalar-oracle purity, and
clock/entropy-free evaluation paths.  This package checks them on every
``make lint`` and CI run:

>>> from repro.analysis.engine import run_analysis
>>> report = run_analysis(["src"])
>>> report.findings
[]

Command line::

    python -m repro.analysis [paths ...] [--json]

Exit codes: 0 clean, 1 findings, 2 usage or internal error.  Findings
are suppressed per line with ``# red: ignore[RED004]``; see README.md
for the rule catalogue.
"""
