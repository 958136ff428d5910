"""The contract-rule catalogue (RED001-RED008).

Each module here encodes one substrate invariant established by an
earlier PR; see the per-module docstrings and ``../README.md`` for the
full catalogue.  :func:`default_rules` is the engine's entry point — it
returns *fresh* instances because rules may accumulate cross-file state
between :meth:`~repro.analysis.engine.Rule.check` and
:meth:`~repro.analysis.engine.Rule.finalize`.
"""

from __future__ import annotations

from repro.analysis.engine import Rule
from repro.analysis.rules.blocking import BlockingAsyncRule
from repro.analysis.rules.nondeterminism import NondeterminismRule
from repro.analysis.rules.oracle import OraclePurityRule
from repro.analysis.rules.registry import RegistryRule
from repro.analysis.rules.schema import SchemaRule
from repro.analysis.rules.seeding import SeedingRule
from repro.analysis.rules.store import StoreDisciplineRule
from repro.analysis.rules.swallow import SwallowRule


def default_rules() -> list[Rule]:
    """One fresh instance of every contract rule, in rule-id order."""
    return [
        SeedingRule(),
        SchemaRule(),
        RegistryRule(),
        StoreDisciplineRule(),
        OraclePurityRule(),
        NondeterminismRule(),
        SwallowRule(),
        BlockingAsyncRule(),
    ]
