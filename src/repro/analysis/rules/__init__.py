"""The qpiadlint rule registry.

Rules are registered here in the order reports list them.  Adding a rule:
implement it in a module under this package, import it, append the class
to :data:`ALL_RULES`, and document it in ``docs/linting.md`` — the
``--list-rules`` table and the docs are generated from this registry.
"""

from __future__ import annotations

from repro.analysis.framework import Rule
from repro.analysis.rules.concurrency import UnguardedSharedWriteRule
from repro.analysis.rules.dataplane import RowLoopInMiningRule
from repro.analysis.rules.determinism import UnseededRngRule
from repro.analysis.rules.freshness import StaleKnowledgeCaptureRule
from repro.analysis.rules.hygiene import BannedImportRule, BareExceptRule
from repro.analysis.rules.mediator import RawRelationAccessRule, RawSourceCallRule
from repro.analysis.rules.null_semantics import (
    NullCompareRule,
    NullInPredicateLiteralRule,
)

__all__ = [
    "ALL_RULES",
    "default_rules",
    "rule_ids",
    "NullCompareRule",
    "NullInPredicateLiteralRule",
    "RawRelationAccessRule",
    "RawSourceCallRule",
    "UnseededRngRule",
    "BannedImportRule",
    "BareExceptRule",
    "RowLoopInMiningRule",
    "StaleKnowledgeCaptureRule",
    "UnguardedSharedWriteRule",
]

#: Every registered rule class, in reporting order.
ALL_RULES: "tuple[type[Rule], ...]" = (
    NullCompareRule,
    NullInPredicateLiteralRule,
    RawRelationAccessRule,
    RawSourceCallRule,
    UnseededRngRule,
    BannedImportRule,
    BareExceptRule,
    RowLoopInMiningRule,
    StaleKnowledgeCaptureRule,
    UnguardedSharedWriteRule,
)


def default_rules() -> "list[Rule]":
    """One instance of every registered per-module rule."""
    return [rule() for rule in ALL_RULES]


def rule_ids() -> "tuple[str, ...]":
    return tuple(rule.id for rule in ALL_RULES)
