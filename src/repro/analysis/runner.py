"""Discovering, parsing and linting modules; aggregating a report.

The runner maps files to dotted module names by walking up through
``__init__.py``-bearing directories, so package-scoped rules (e.g.
``raw-relation-access`` over ``repro.core``) see the same names imports
use.

Every rule is a per-module :class:`~repro.analysis.framework.Rule`, so
each file is parsed once and checked in one pass; module names come from
the filesystem, never from the linted root, so linting a subtree reports
a subset of what linting the whole tree reports.

Beyond rule findings, the runner emits two pseudo-rules of its own:

* ``parse-error`` — a file failed to parse (one broken file cannot mask
  findings in the rest of the tree);
* ``unused-suppression`` — a directive that suppressed nothing, or names
  an unknown rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.analysis.framework import Finding, ModuleContext, Rule, Severity

__all__ = [
    "LintReport",
    "lint_paths",
    "lint_context",
    "iter_python_files",
    "module_name_for",
    "PSEUDO_RULES",
]

_SKIPPED_DIRS = frozenset({"__pycache__", ".git", ".venv", "venv", "build", "dist"})

#: Findings the runner itself may emit, valid in directives: id →
#: (severity, description, rationale), so SARIF rule metadata and the
#: catalogue cover every rule id a report can contain.
PSEUDO_RULES: "dict[str, tuple[Severity, str, str]]" = {
    "parse-error": (
        Severity.ERROR,
        "a linted file failed to parse",
        "an unparseable file would otherwise silently drop out of every check",
    ),
    "unused-suppression": (
        Severity.WARNING,
        "a suppression directive that suppressed nothing, or names an "
        "unknown rule",
        "stale exemptions hide the rule they once silenced; pruning them "
        "keeps the suppression budget honest",
    ),
}


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: "list[Finding]" = field(default_factory=list)
    suppressed_count: int = 0
    files_checked: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def count(self, severity: Severity) -> int:
        return sum(1 for finding in self.findings if finding.severity is severity)

    def merge(self, other: "LintReport") -> None:
        self.findings.extend(other.findings)
        self.suppressed_count += other.suppressed_count
        self.files_checked += other.files_checked

    def sort(self) -> None:
        self.findings.sort()


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Yield every ``.py`` file under *paths*, deterministically ordered."""
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        for candidate in sorted(path.rglob("*.py")):
            if not any(part in _SKIPPED_DIRS for part in candidate.parts):
                yield candidate


def module_name_for(path: Path) -> str:
    """The dotted module name of *path*, derived from the package tree."""
    path = path.resolve()
    parts = [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    if path.name == "__init__.py":
        parts = parts[1:] or [path.parent.name]
    return ".".join(reversed(parts))


def lint_context(context: ModuleContext, rules: Iterable[Rule]) -> LintReport:
    """Run *rules* over one parsed module, honouring its suppressions."""
    report = LintReport(files_checked=1)
    for rule in rules:
        for finding in rule.check(context):
            if context.suppressions.is_suppressed(finding):
                report.suppressed_count += 1
            else:
                report.findings.append(finding)
    report.sort()
    return report


def _unused_suppression_findings(
    context: ModuleContext, known: frozenset[str]
) -> "list[Finding]":
    return [
        Finding(
            path=str(context.path),
            line=line,
            column=1,
            rule="unused-suppression",
            severity=Severity.WARNING,
            message=f"suppression of '{rule}' is stale: {why}",
        )
        for line, rule, why in context.suppressions.unused_directives(known)
    ]


def lint_paths(paths: Sequence["Path | str"]) -> LintReport:
    """Lint every Python file under *paths* with every rule; merge the reports.

    Files that fail to parse contribute a ``parse-error`` finding rather
    than aborting the run, so one broken file cannot mask findings in the
    rest of the tree.  Directives that suppressed nothing become
    ``unused-suppression`` findings.
    """
    from repro.analysis.rules import default_rules, rule_ids

    rules = default_rules()
    known = frozenset(rule_ids()) | frozenset(PSEUDO_RULES)
    report = LintReport()
    for file_path in iter_python_files([Path(p) for p in paths]):
        try:
            context = ModuleContext.from_file(file_path, module_name_for(file_path))
        except SyntaxError as exc:
            report.findings.append(
                Finding(
                    path=str(file_path),
                    line=exc.lineno or 1,
                    column=(exc.offset or 0) + 1,
                    rule="parse-error",
                    severity=Severity.ERROR,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            report.files_checked += 1
            continue
        report.merge(lint_context(context, rules))
        report.findings.extend(_unused_suppression_findings(context, known))
    report.sort()
    return report
