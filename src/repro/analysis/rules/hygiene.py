"""General code-hygiene rules with QPIAD-specific rationales.

These are the checks whose violations historically produce the subtlest
reproduction bugs: a dependency that smuggles in different NULL handling,
and a swallowed exception that hides a budget violation.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.framework import Finding, ModuleContext, Rule, Severity

__all__ = ["BannedImportRule", "BareExceptRule"]

#: Top-level distributions DESIGN.md's from-scratch constraint forbids.
BANNED_MODULES = frozenset({"pandas", "sklearn", "scipy"})


class BannedImportRule(Rule):
    """Flag imports of pandas / sklearn / scipy."""

    id = "banned-import"
    severity = Severity.ERROR
    description = "pandas/sklearn/scipy are banned (from-scratch constraint)"
    rationale = (
        "DESIGN.md §1: everything is implemented from scratch (numpy only where "
        "it genuinely helps).  Heavy frameworks bring their own NaN/NULL "
        "semantics, which would silently diverge from the paper's Definition 2."
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".", 1)[0]
                    if root in BANNED_MODULES:
                        yield self.finding(
                            context, node,
                            f"import of banned dependency {root!r}; this repo is "
                            "from-scratch by design (see DESIGN.md)",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module:
                root = node.module.split(".", 1)[0]
                if root in BANNED_MODULES:
                    yield self.finding(
                        context, node,
                        f"import from banned dependency {root!r}; this repo is "
                        "from-scratch by design (see DESIGN.md)",
                    )


class BareExceptRule(Rule):
    """Flag bare ``except:`` and silently swallowed broad exceptions."""

    id = "bare-except"
    severity = Severity.WARNING
    description = "no bare except; no 'except Exception: pass'"
    rationale = (
        "The error taxonomy (QueryBudgetExceededError, NullBindingError, ...) "
        "encodes source-autonomy violations; swallowing them broadly hides "
        "exactly the failures the capability model exists to surface."
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    context, node,
                    "bare 'except:' catches SystemExit/KeyboardInterrupt too; "
                    "name the exception (see repro.errors)",
                )
                continue
            broad = (
                isinstance(node.type, ast.Name)
                and node.type.id in ("Exception", "BaseException")
            )
            swallows = len(node.body) == 1 and isinstance(
                node.body[0], (ast.Pass, ast.Continue)
            )
            if broad and swallows:
                yield self.finding(
                    context, node,
                    f"'except {node.type.id}' that silently swallows; catch the "
                    "specific repro.errors type or handle the failure",
                )
