"""Rule keeping long-lived mediator state on :class:`KnowledgeStore` (PR 10).

The refresh subsystem swaps knowledge generations atomically through a
:class:`~repro.mining.store.KnowledgeStore`; mediators and planners that
hold the store (and snapshot ``store.current`` once per query) pick a new
generation up on their next retrieval, and the plan cache misses by
construction because its keys carry the generation fingerprint.  A
constructor that instead captures the bare :class:`KnowledgeBase` pins one
generation forever — the component keeps planning on statistics every
refresh has already replaced, which is exactly the stale-knowledge hazard
the store indirection exists to remove.

Single-query snapshots are legitimate — a planner's per-call generators
*must* hold one generation so a retrieval never mixes statistics mid-query
— so those few dataclass fields carry a rule suppression with a
justification, keeping every pinned generation a reviewed exemption.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.framework import Finding, ModuleContext, Rule, Severity

__all__ = ["StaleKnowledgeCaptureRule"]

#: The packages whose components must read through the store.
KNOWLEDGE_CONSUMER_PACKAGES = (
    "repro.core",
    "repro.planner",
)


def _annotation_text(annotation: "ast.expr | None") -> str:
    if annotation is None:
        return ""
    return ast.unparse(annotation)


def _pins_generation(annotation: "ast.expr | None") -> bool:
    """Whether *annotation* admits only a bare, unswappable KnowledgeBase."""
    text = _annotation_text(annotation)
    return "KnowledgeBase" in text and "KnowledgeStore" not in text


class StaleKnowledgeCaptureRule(Rule):
    """Flag core/planner state that pins one knowledge generation."""

    id = "stale-knowledge-capture"
    severity = Severity.WARNING
    description = (
        "core/planner components must read mined statistics through a "
        "KnowledgeStore (as_store + per-query snapshot), not capture a "
        "bare KnowledgeBase in long-lived state"
    )
    rationale = (
        "knowledge refresh installs new generations atomically through the "
        "KnowledgeStore; a constructor or class field that stores the bare "
        "KnowledgeBase pins the generation it was built with, so every "
        "refresh silently bypasses that component and it keeps planning on "
        "replaced statistics.  Single-query snapshot fields are exempt — "
        "with a justification."
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        if not context.in_package(*KNOWLEDGE_CONSUMER_PACKAGES):
            return
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            yield from self._class_fields(context, node)
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    yield from self._init_captures(context, item)

    def _class_fields(self, context: ModuleContext, cls: ast.ClassDef) -> Iterator[Finding]:
        """Dataclass-style fields annotated as a bare KnowledgeBase."""
        for item in cls.body:
            if isinstance(item, ast.AnnAssign) and _pins_generation(item.annotation):
                target = (
                    item.target.id if isinstance(item.target, ast.Name) else "field"
                )
                yield self.finding(
                    context,
                    item,
                    f"{cls.name}.{target} pins one KnowledgeBase generation; "
                    "widen to 'KnowledgeBase | KnowledgeStore' and resolve per "
                    "use, or suppress with a justification if a single-query "
                    "snapshot is the point",
                )

    def _init_captures(
        self, context: ModuleContext, init: ast.FunctionDef
    ) -> Iterator[Finding]:
        """``self.x = knowledge`` where the parameter can be a KnowledgeBase."""
        arguments = init.args
        knowledge_params = {
            arg.arg
            for arg in (*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs)
            if "KnowledgeBase" in _annotation_text(arg.annotation)
        }
        if not knowledge_params:
            return
        for node in ast.walk(init):
            if not isinstance(node, ast.Assign):
                continue
            if not (
                isinstance(node.value, ast.Name)
                and node.value.id in knowledge_params
            ):
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    yield self.finding(
                        context,
                        node,
                        f"__init__ stores knowledge parameter "
                        f"{node.value.id!r} verbatim on self.{target.attr}; "
                        "wrap it in as_store(...) and snapshot .current once "
                        "per query so refresh swaps reach this component",
                    )
                    break
