"""RED002: the frozen versioned-payload contract (established in PR 2).

Every payload crossing the service boundary lives in
``repro/api/schema.py`` and must:

* be declared ``@dataclass(frozen=True)`` — payloads are immutable;
* if it is a wire payload (its body assigns a ``kind`` class
  attribute, ``kind: ClassVar[str] = "..."``), carry a
  ``schema_version`` field so readers can reject foreign API
  generations.

Dispatch needs no check: the schema base class registers every
declared ``kind`` in ``PAYLOAD_KINDS`` as the class is created and
refuses a duplicate, so ``payload_from_dict`` cannot drift from the
classes.  Leaf row types (``SweepPoint`` and friends) declare no
``kind`` and ride inside a versioned envelope; they only need to be
frozen.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, ModuleSource, Rule

#: The module this contract covers.
SCHEMA_MODULE = ("repro", "api", "schema")


def _dataclass_decoration(node: ast.ClassDef) -> tuple[bool, bool]:
    """``(is_dataclass, frozen)`` from the class decorators."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else ""
        )
        if name != "dataclass":
            continue
        frozen = False
        if isinstance(decorator, ast.Call):
            for keyword in decorator.keywords:
                if keyword.arg == "frozen" and isinstance(keyword.value, ast.Constant):
                    frozen = bool(keyword.value.value)
        return True, frozen
    return False, False


def _declared_kind(node: ast.ClassDef) -> str | None:
    """The string the class body assigns to ``kind``, if any."""
    for item in node.body:
        if isinstance(item, ast.AnnAssign):
            targets, value = [item.target], item.value
        elif isinstance(item, ast.Assign):
            targets, value = item.targets, item.value
        else:
            continue
        if (
            any(isinstance(t, ast.Name) and t.id == "kind" for t in targets)
            and isinstance(value, ast.Constant)
            and isinstance(value.value, str)
        ):
            return value.value
    return None


class SchemaRule(Rule):
    rule_id = "RED002"
    summary = (
        "schema payloads are frozen dataclasses, and every one declaring "
        "a kind carries schema_version"
    )

    def applies_to(self, module: ModuleSource) -> bool:
        return module.module_parts == SCHEMA_MODULE

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        tree = module.tree
        assert tree is not None
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            is_dataclass, frozen = _dataclass_decoration(node)
            if not is_dataclass:
                continue  # helper classes (the codec base) are not payloads
            if not frozen:
                yield self.finding(
                    module,
                    node,
                    f"schema dataclass {node.name} is not frozen=True; payloads "
                    "must be immutable",
                )
            kind = _declared_kind(node)
            if kind is None:
                continue  # leaf row type riding inside an envelope
            field_names = {
                item.target.id
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            }
            if "schema_version" not in field_names:
                yield self.finding(
                    module,
                    node,
                    f"payload {node.name} declares kind {kind!r} but carries no "
                    "schema_version field; wire payloads must be versioned",
                )
