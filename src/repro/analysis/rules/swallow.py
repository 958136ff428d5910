"""RED007: no silent exception swallowing in the library tree.

The resilience plane (PR 8) gives every failure exactly two legitimate
destinations: it is retried/degraded by the reliability machinery, or
it surfaces to the caller (optionally as a wire-level
:class:`~repro.api.schema.ErrorInfo`).  A handler that catches
everything and drops it on the floor creates a third, invisible
destination — the classic way fault-injection campaigns and real
incidents alike go undiagnosed.  Inside ``repro.*``:

* a bare ``except:`` is always a finding — it traps ``SystemExit`` and
  ``KeyboardInterrupt`` along with everything else;
* ``except Exception`` / ``except BaseException`` (alone or in a
  tuple) is a finding unless the handler body contains a ``raise`` —
  broad catches are for *routing* (inspect, then re-raise what is not
  yours), never for discarding.

Narrowed handlers (``except OSError: pass`` on a best-effort cleanup,
``except ReproError`` at the CLI boundary) are out of scope: naming
the exception type is the declaration that this failure mode was
considered.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, ModuleSource, Rule

#: Exception names whose handlers must re-raise to be considered routing.
BROAD_EXCEPTION_NAMES = frozenset({"Exception", "BaseException"})


def _catches_broadly(handler: ast.ExceptHandler) -> bool:
    """Whether the handler's type clause includes Exception/BaseException.

    Only called on typed handlers: :meth:`SwallowRule.check` reports a
    bare ``except:`` first.
    """
    clause = handler.type
    candidates = clause.elts if isinstance(clause, ast.Tuple) else [clause]
    return any(
        isinstance(entry, ast.Name) and entry.id in BROAD_EXCEPTION_NAMES
        for entry in candidates
    )


def _reraises(handler: ast.ExceptHandler) -> bool:
    """Whether any path through the handler body raises."""
    return any(
        isinstance(node, ast.Raise)
        for stmt in handler.body
        for node in ast.walk(stmt)
    )


class SwallowRule(Rule):
    rule_id = "RED007"
    summary = (
        "no silent exception swallowing: bare except is banned, and "
        "except Exception/BaseException must re-raise on some path"
    )

    def applies_to(self, module: ModuleSource) -> bool:
        parts = module.module_parts
        return len(parts) >= 1 and parts[0] == "repro"

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        tree = module.tree
        assert tree is not None
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module,
                    node,
                    "bare 'except:' swallows every signal (including "
                    "KeyboardInterrupt); name the exception types this "
                    "site can actually handle",
                )
            elif _catches_broadly(node) and not _reraises(node):
                yield self.finding(
                    module,
                    node,
                    "broad 'except Exception' handler never re-raises; "
                    "either narrow it to the failure modes this site "
                    "owns or route what is not yours with 'raise'",
                )
