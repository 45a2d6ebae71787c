"""The qpiadlint rule framework: findings, suppressions, module contexts.

QPIAD's correctness rests on invariants the Python type system cannot
express — SQL NULL comparison semantics, the mediator's autonomy
constraint, seeded randomness for reproducible paper figures.  This module
provides the substrate for checking them *statically*, in the spirit of
treating completeness/correctness reasoning as a property decidable before
execution rather than discovered at runtime:

* :class:`Rule` — a named, documented check over one module's AST,
* :class:`Finding` — one violation, with a stable sort order,
* :class:`Severity` — error / warning,
* :class:`ModuleContext` — a parsed module plus its dotted name,
* :class:`SuppressionIndex` — ``# qpiadlint: disable=...`` comment handling.

Suppression grammar (comments are extracted with :mod:`tokenize`, so
string literals that merely *look* like directives are ignored):

* ``# qpiadlint: disable=rule-a,rule-b`` — trailing a code line, suppresses
  those rules on that line only;
* ``# qpiadlint: disable-file=rule-a`` — anywhere in the file, suppresses
  for the whole module (conventionally placed right under the docstring
  with a justification).

``disable=all`` is deliberately rejected: suppressions must name the rule
they silence so every exemption stays searchable and reviewable.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path
from typing import Iterator

from repro.errors import QpiadError

__all__ = [
    "LintConfigError",
    "Severity",
    "Finding",
    "ModuleContext",
    "Rule",
    "SuppressionIndex",
    "parse_directives",
]

_DIRECTIVE = re.compile(
    r"#\s*qpiadlint:\s*(?P<kind>disable(?:-file)?)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_,\- ]+)"
)


class LintConfigError(QpiadError):
    """A malformed suppression directive."""


class Severity(IntEnum):
    """How bad an unsuppressed finding is.  Any finding fails the lint."""

    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Field order defines the sort order (path, line, column, rule), which is
    what keeps reporter output byte-stable across runs.
    """

    path: str
    line: int
    column: int
    rule: str
    severity: Severity
    message: str

    def format(self) -> str:
        # ``!s`` matters: pre-3.11 IntEnum formats as its integer value.
        return (
            f"{self.path}:{self.line}:{self.column}: "
            f"{self.severity!s}: [{self.rule}] {self.message}"
        )


@dataclass
class ModuleContext:
    """A module being linted: source text, parsed tree, dotted name."""

    path: Path
    source: str
    tree: ast.Module
    module: str
    suppressions: "SuppressionIndex" = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.suppressions is None:
            self.suppressions = SuppressionIndex.from_source(self.source)

    @classmethod
    def from_source(
        cls, source: str, path: "Path | str" = "<memory>", module: str = "module"
    ) -> "ModuleContext":
        """Build a context from a source string (used heavily by tests)."""
        tree = ast.parse(source)
        return cls(path=Path(path), source=source, tree=tree, module=module)

    @classmethod
    def from_file(cls, path: Path, module: str) -> "ModuleContext":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        return cls(path=path, source=source, tree=tree, module=module)

    def in_package(self, *prefixes: str) -> bool:
        """Whether the module lives under any of the dotted *prefixes*."""
        return any(
            self.module == prefix or self.module.startswith(prefix + ".")
            for prefix in prefixes
        )


class Rule(ABC):
    """One named invariant check.

    Subclasses set the class attributes and implement :meth:`check`, which
    yields findings for one module.  Rules must be stateless across modules
    (one instance is reused for the whole run).
    """

    id: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""
    rationale: str = ""

    @abstractmethod
    def check(self, context: ModuleContext) -> Iterator[Finding]:
        """Yield every violation of this rule in *context*."""

    def finding(self, context: ModuleContext, node: ast.AST, message: str) -> Finding:
        """A :class:`Finding` anchored at *node* in *context*."""
        return Finding(
            path=str(context.path),
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            severity=self.severity,
            message=message,
        )

    def __repr__(self) -> str:
        return f"<Rule {self.id}>"


def parse_directives(source: str) -> Iterator[tuple[str, int, frozenset[str]]]:
    """Yield ``(kind, line, rules)`` for each suppression comment in *source*.

    Uses the tokenizer so only genuine comments count.  Malformed rule lists
    (empty, or the non-specific ``all``) raise :class:`LintConfigError` —
    a suppression that silences everything is itself a lint violation.
    """
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (token.start[0], token.string)
            for token in tokens
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError):  # pragma: no cover - parse guard
        return
    for line, text in comments:
        match = _DIRECTIVE.search(text)
        if match is None:
            continue
        rules = frozenset(
            part.strip() for part in match.group("rules").split(",") if part.strip()
        )
        if not rules:
            raise LintConfigError(f"empty qpiadlint directive on line {line}: {text!r}")
        if "all" in rules:
            raise LintConfigError(
                f"line {line}: 'disable=all' is not allowed; name the rules explicitly"
            )
        yield match.group("kind"), line, rules


class SuppressionIndex:
    """Which rules are suppressed at which lines of one module.

    Besides answering :meth:`is_suppressed`, the index remembers every
    directive it was built from (with its line) and which of them actually
    fired, so the runner can report stale suppressions
    (``unused-suppression``).
    """

    def __init__(
        self,
        line_rules: "dict[int, frozenset[str]] | None" = None,
        file_rules: "frozenset[str] | None" = None,
        *,
        directives: "tuple[tuple[str, int, frozenset[str]], ...]" = (),
    ):
        self._line_rules = dict(line_rules or {})
        self.file_rules = frozenset(file_rules or ())
        #: Every parsed directive, as ``(kind, line, rules)``.
        self.directives = directives
        self._used_lines: set[tuple[int, str]] = set()
        self._used_file: set[str] = set()

    @classmethod
    def from_source(cls, source: str) -> "SuppressionIndex":
        line_rules: dict[int, frozenset[str]] = {}
        file_rules: set[str] = set()
        directives = tuple(parse_directives(source))
        for kind, line, rules in directives:
            if kind == "disable":
                line_rules[line] = line_rules.get(line, frozenset()) | rules
            else:
                file_rules.update(rules)
        return cls(line_rules, frozenset(file_rules), directives=directives)

    def is_suppressed(self, finding: Finding) -> bool:
        if finding.rule in self.file_rules:
            self._used_file.add(finding.rule)
            return True
        if finding.rule in self._line_rules.get(finding.line, ()):
            self._used_lines.add((finding.line, finding.rule))
            return True
        return False

    def unused_directives(self, known: frozenset[str]) -> "list[tuple[int, str, str]]":
        """Directives that suppressed nothing, as ``(line, rule, why)``."""
        stale: list[tuple[int, str, str]] = []
        for kind, line, rules in self.directives:
            for rule in sorted(rules):
                if rule not in known:
                    stale.append((line, rule, "unknown rule"))
                elif kind == "disable-file":
                    if rule not in self._used_file:
                        stale.append((line, rule, "suppressed nothing"))
                elif (line, rule) not in self._used_lines:
                    stale.append((line, rule, "suppressed nothing"))
        return stale
