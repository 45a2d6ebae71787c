"""Rendering lint reports: human text and SARIF.

The SARIF form (2.1.0) is what CI uploads to GitHub code scanning.  It is
a contract: findings are sorted (path, line, column, rule), keys are
emitted in sorted order, and no timestamps or absolute machine state leak
in — identical trees produce byte-identical output.

This module also renders the rule catalogue itself — the ``--list-rules``
table and the generated rule-reference table in ``docs/linting.md`` both
come from :func:`iter_rule_rows`, so the docs cannot drift from the
registry (a test asserts they agree).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, NamedTuple

from repro.analysis.framework import Severity
from repro.analysis.runner import PSEUDO_RULES, LintReport

__all__ = [
    "render_text",
    "render_sarif",
    "render_rule_list",
    "render_rule_reference",
    "iter_rule_rows",
]


def render_text(report: LintReport) -> str:
    """A compact, grep-friendly text report."""
    lines = [finding.format() for finding in report.findings]
    errors = report.count(Severity.ERROR)
    warnings = report.count(Severity.WARNING)
    if report.findings:
        lines.append(
            f"{len(report.findings)} finding(s) ({errors} error(s), "
            f"{warnings} warning(s)) in {report.files_checked} file(s); "
            f"{report.suppressed_count} suppressed"
        )
    else:
        lines.append(
            f"clean: {report.files_checked} file(s), "
            f"{report.suppressed_count} finding(s) suppressed"
        )
    return "\n".join(lines)


_SARIF_LEVELS = {Severity.ERROR: "error", Severity.WARNING: "warning"}


class RuleRow(NamedTuple):
    """One catalogue entry, in registry (= reporting) order."""

    id: str
    kind: str  # "module" | "runner"
    severity: Severity
    description: str
    rationale: str


def iter_rule_rows() -> Iterator[RuleRow]:
    """Every rule id a report can contain, with its registered metadata."""
    from repro.analysis.rules import ALL_RULES

    for rule in ALL_RULES:
        yield RuleRow(rule.id, "module", rule.severity, rule.description, rule.rationale)
    for rule_id, (severity, description, rationale) in PSEUDO_RULES.items():
        yield RuleRow(rule_id, "runner", severity, description, rationale)


def render_sarif(report: LintReport) -> str:
    """The report as SARIF 2.1.0; stable across runs on identical input."""
    rules = [
        {
            "id": row.id,
            "shortDescription": {"text": row.description},
            "help": {"text": row.rationale},
            "defaultConfiguration": {"level": _SARIF_LEVELS[row.severity]},
        }
        for row in sorted(iter_rule_rows())
    ]
    results = [
        {
            "ruleId": finding.rule,
            "level": _SARIF_LEVELS[finding.severity],
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": Path(finding.path).as_posix(),
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.column,
                        },
                    }
                }
            ],
        }
        for finding in sorted(report.findings)
    ]
    payload = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "qpiadlint",
                        "informationUri": "https://example.invalid/qpiad/docs/linting.md",
                        "rules": rules,
                    }
                },
                "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_rule_list() -> str:
    """The ``--list-rules`` catalogue: one block per rule, registry order."""
    blocks = []
    for row in iter_rule_rows():
        blocks.append(
            f"{row.id}  ({row.kind} rule, {row.severity!s})\n"
            f"    {row.description}\n"
            f"    why: {row.rationale}"
        )
    return "\n".join(blocks)


def render_rule_reference() -> str:
    """The generated markdown rule table embedded in ``docs/linting.md``."""
    lines = [
        "| rule | kind | severity | description |",
        "|---|---|---|---|",
    ]
    for row in iter_rule_rows():
        description = row.description.replace("|", "\\|")
        lines.append(f"| `{row.id}` | {row.kind} | {row.severity!s} | {description} |")
    return "\n".join(lines)
