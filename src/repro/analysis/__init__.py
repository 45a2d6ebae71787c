"""``repro.analysis`` — static analysis of the reproduction's own invariants.

The type system cannot see that ``NULL == NULL`` must be false, that the
mediator must reach sources only through
:class:`~repro.sources.AutonomousSource` and the retrieval engine, that
every RNG must be seeded, or that a field written under a lock is never
written without it.  This package checks those invariants over the AST,
wired up as ``qpiad lint``, a tier-1 self-lint test, and a CI job.  Every
rule is a per-module check under ``rules/``, run in one pass per file.
See ``docs/linting.md`` for the catalogue.
"""

from repro.analysis.framework import (
    Finding,
    LintConfigError,
    ModuleContext,
    Rule,
    Severity,
    SuppressionIndex,
)
from repro.analysis.reporting import render_sarif, render_text
from repro.analysis.rules import ALL_RULES, default_rules, rule_ids
from repro.analysis.runner import LintReport, lint_context, lint_paths

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintConfigError",
    "LintReport",
    "ModuleContext",
    "Rule",
    "Severity",
    "SuppressionIndex",
    "default_rules",
    "lint_context",
    "lint_paths",
    "render_sarif",
    "render_text",
    "rule_ids",
]
