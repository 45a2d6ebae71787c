"""Discovering, parsing and linting modules; aggregating a report.

The runner maps files to dotted module names by walking up through
``__init__.py``-bearing directories, so package-scoped rules (e.g.
``raw-relation-access`` over ``repro.core``) see the same names imports
use.  Package-level suppressions declared in an ``__init__.py`` apply to
every module beneath it.

Every rule is a per-module :class:`~repro.analysis.framework.Rule`, so
each file is parsed once and checked in one pass; module names and
package suppressions come from the filesystem, never from the linted
root, so linting a subtree reports a subset of what linting the whole
tree reports.

Beyond rule findings, the runner emits three pseudo-rules of its own:

* ``parse-error`` — a file failed to parse (always on; one broken file
  cannot mask findings in the rest of the tree);
* ``misplaced-directive`` — a ``disable-package`` directive outside a
  package ``__init__.py`` (always on; the directive is ignored there);
* ``unused-suppression`` — a directive that suppressed nothing, or names
  an unknown rule (only with ``strict_suppressions``; package directives
  are aggregated across every module they cover before being judged).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.analysis.framework import (
    Finding,
    ModuleContext,
    Rule,
    Severity,
    parse_directives,
)

__all__ = [
    "LintReport",
    "lint_paths",
    "lint_context",
    "iter_python_files",
    "module_name_for",
    "PSEUDO_RULE_IDS",
]

_SKIPPED_DIRS = frozenset({"__pycache__", ".git", ".venv", "venv", "build", "dist"})

#: Findings the runner itself may emit, valid in ``--select`` / directives.
PSEUDO_RULE_IDS = ("parse-error", "misplaced-directive", "unused-suppression")


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


def _package_declarations(
    directory: Path, cache: "dict[Path, dict[str, int]]"
) -> "dict[str, int]":
    """``rule -> declaring line`` from *directory*'s ``__init__.py``, cached."""
    if directory not in cache:
        declared: dict[str, int] = {}
        source = (directory / "__init__.py").read_text(encoding="utf-8")
        for kind, line, names in parse_directives(source):
            if kind == "disable-package":
                for name in names:
                    declared.setdefault(name, line)
        cache[directory] = declared
    return cache[directory]


def _package_suppressions(
    path: Path, cache: "dict[Path, dict[str, int]]"
) -> frozenset[str]:
    """Union of disable-package rules from every enclosing ``__init__.py``."""
    rules: set[str] = set()
    parent = path.resolve().parent
    while (parent / "__init__.py").exists():
        rules.update(_package_declarations(parent, cache))
        parent = parent.parent
    return frozenset(rules)


def _misplaced_directive_findings(context: ModuleContext) -> "list[Finding]":
    findings: list[Finding] = []
    for line, rules in context.suppressions.misplaced_package_directives:
        findings.append(
            Finding(
                path=str(context.path),
                line=line,
                column=1,
                rule="misplaced-directive",
                severity=Severity.WARNING,
                message=(
                    f"disable-package={','.join(sorted(rules))} is only honoured "
                    "in a package __init__.py and is ignored here; use "
                    "disable-file, or move the directive into the package "
                    "__init__.py"
                ),
            )
        )
    return findings


def lint_context(context: ModuleContext, rules: Iterable[Rule]) -> LintReport:
    """Run *rules* over one parsed module, honouring its suppressions."""
    report = LintReport(files_checked=1)
    for rule in rules:
        for finding in rule.check(context):
            if context.suppressions.is_suppressed(finding):
                report.suppressed_count += 1
            else:
                report.findings.append(finding)
    for finding in _misplaced_directive_findings(context):
        if context.suppressions.is_suppressed(finding):
            report.suppressed_count += 1
        else:
            report.findings.append(finding)
    report.sort()
    return report


def _mark_package_usage(
    contexts: Sequence[ModuleContext],
    cache: "dict[Path, dict[str, int]]",
) -> "set[tuple[Path, str]]":
    """``(package dir, rule)`` pairs whose directive suppressed something."""
    used: set[tuple[Path, str]] = set()
    for context in contexts:
        fired = context.suppressions.used_package_rules
        if not fired:
            continue
        parent = context.path.resolve().parent
        while (parent / "__init__.py").exists():
            declared = cache.get(parent, {})
            used.update((parent, rule) for rule in fired if rule in declared)
            parent = parent.parent
    return used


def _unused_suppression_findings(
    contexts: Sequence[ModuleContext],
    active: frozenset[str],
    known: frozenset[str],
    cache: "dict[Path, dict[str, int]]",
) -> "list[Finding]":
    findings: list[Finding] = []
    for context in contexts:
        for line, rule, why in context.suppressions.unused_directives(active, known):
            findings.append(
                Finding(
                    path=str(context.path),
                    line=line,
                    column=1,
                    rule="unused-suppression",
                    severity=Severity.WARNING,
                    message=f"suppression of '{rule}' is stale: {why}",
                )
            )
    used_pairs = _mark_package_usage(contexts, cache)
    for context in contexts:
        if context.path.name != "__init__.py":
            continue
        directory = context.path.resolve().parent
        for rule, line in sorted(cache.get(directory, {}).items()):
            if rule in known:
                if rule not in active or (directory, rule) in used_pairs:
                    continue
                why = "it suppressed nothing anywhere in the package"
            else:
                why = "unknown rule"
            findings.append(
                Finding(
                    path=str(context.path),
                    line=line,
                    column=1,
                    rule="unused-suppression",
                    severity=Severity.WARNING,
                    message=f"disable-package of '{rule}' is stale: {why}",
                )
            )
    return findings


def lint_paths(
    paths: Sequence["Path | str"],
    rules: "Iterable[Rule] | None" = None,
    *,
    strict_suppressions: bool = False,
) -> LintReport:
    """Lint every Python file under *paths* and return the merged report.

    Files that fail to parse contribute a ``parse-error`` finding rather
    than aborting the run, so one broken file cannot mask findings in the
    rest of the tree.  With ``strict_suppressions``, directives that
    suppressed nothing become ``unused-suppression`` findings.
    """
    from repro.analysis.rules import default_rules, rule_ids

    active = list(rules) if rules is not None else default_rules()
    report = LintReport()
    package_cache: "dict[Path, dict[str, int]]" = {}
    contexts: list[ModuleContext] = []
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
        context.suppressions.add_package_rules(
            _package_suppressions(file_path, package_cache)
        )
        contexts.append(context)
        report.merge(lint_context(context, active))
    if strict_suppressions:
        active_ids = frozenset(rule.id for rule in active)
        known_ids = frozenset(rule_ids()) | frozenset(PSEUDO_RULE_IDS) | active_ids
        report.findings.extend(
            _unused_suppression_findings(contexts, active_ids, known_ids, package_cache)
        )
    report.sort()
    return report
