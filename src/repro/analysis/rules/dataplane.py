"""Rule keeping the mining hot paths on the columnar kernels.

TANE partitioning, ``g3`` computation and NBC count accumulation run as
numpy kernels over dictionary codes (:mod:`repro.relational.columnar`)
because per-tuple Python loops over mining inputs were the system's
dominant cost at realistic sizes.  They are also the only implementation:
a new ``for row in sample:`` creeping back into those modules re-introduces
the O(rows) interpreter loop and, worse, a second semantics beside the
kernel that neither the golden digests nor the per-row references in the
tests were written against.

A per-tuple loop that is genuinely needed (say, over a handful of classes
rather than rows) carries a rule suppression with a justification, keeping
every such loop in the mining hot paths a reviewed exemption.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.framework import Finding, ModuleContext, Rule, Severity

__all__ = ["RowLoopInMiningRule"]

#: The mining modules whose per-tuple loops the columnar kernels replaced.
MINING_HOT_MODULES = (
    "repro.mining.partitions",
    "repro.mining.tane",
    "repro.mining.nbc",
    "repro.mining.selectivity",
)

#: Attributes whose iteration walks tuple-granular storage.
_PER_TUPLE_ATTRIBUTES = frozenset({"rows", "classes"})

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


class RowLoopInMiningRule(Rule):
    """Flag per-tuple Python loops in the mining hot paths."""

    id = "row-loop-in-mining"
    severity = Severity.WARNING
    description = (
        "mining hot paths must aggregate via the columnar kernels, not "
        "iterate relations, .rows, or partition .classes tuple-by-tuple"
    )
    rationale = (
        "TANE partitioning and NBC counting run as columnar kernels because "
        "per-tuple Python loops dominated mining cost at scale (BENCH_8), "
        "and the kernels are the only implementation.  A new row loop in "
        "repro.mining re-grows the O(rows) interpreter cost and adds a second "
        "semantics beside the kernel that the golden digests do not pin.  A "
        "loop that must stay carries a suppression with a justification."
    )

    def __init__(self, modules: "tuple[str, ...]" = MINING_HOT_MODULES):
        self.modules = modules

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        if not context.in_package(*self.modules):
            return
        relation_params = self._relation_params(context.tree)
        for node in ast.walk(context.tree):
            if isinstance(node, ast.For):
                iterables = [node.iter]
            elif isinstance(node, _COMPREHENSIONS):
                iterables = [generator.iter for generator in node.generators]
            else:
                continue
            for iterable in iterables:
                reason = self._per_tuple_reason(iterable, relation_params)
                if reason:
                    yield self.finding(
                        context,
                        node,
                        f"{reason}; aggregate with the columnar kernels, "
                        "or suppress with a justification",
                    )

    @staticmethod
    def _relation_params(tree: ast.Module) -> frozenset[str]:
        """Parameter names annotated as ``Relation`` anywhere in the module."""
        names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                arguments = node.args
                for arg in (
                    *arguments.posonlyargs,
                    *arguments.args,
                    *arguments.kwonlyargs,
                ):
                    if _is_relation_annotation(arg.annotation):
                        names.add(arg.arg)
        return frozenset(names)

    def _per_tuple_reason(
        self, iterable: ast.AST, relation_params: frozenset[str]
    ) -> "str | None":
        if (
            isinstance(iterable, ast.Attribute)
            and iterable.attr in _PER_TUPLE_ATTRIBUTES
        ):
            return f"iterates .{iterable.attr} tuple-by-tuple in a mining hot path"
        if isinstance(iterable, ast.Name) and iterable.id in relation_params:
            return (
                f"iterates Relation parameter {iterable.id!r} row-by-row "
                "in a mining hot path"
            )
        if (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Name)
            and iterable.func.id == "enumerate"
            and iterable.args
        ):
            return self._per_tuple_reason(iterable.args[0], relation_params)
        return None


def _is_relation_annotation(annotation: "ast.expr | None") -> bool:
    if annotation is None:
        return False
    if isinstance(annotation, ast.Name):
        return annotation.id == "Relation"
    if isinstance(annotation, ast.Attribute):
        return annotation.attr == "Relation"
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value.strip('"').split(".")[-1] == "Relation"
    return False
