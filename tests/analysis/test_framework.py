"""Framework-level behaviour: directives, suppression, finding order."""

import pytest

from repro.analysis import (
    Finding,
    LintConfigError,
    ModuleContext,
    Severity,
    SuppressionIndex,
)
from repro.analysis.framework import parse_directives


class TestSeverity:
    def test_str_is_lowercase(self):
        assert str(Severity.ERROR) == "error"


class TestFindingOrdering:
    def test_sorts_by_path_then_line_then_column_then_rule(self):
        make = lambda path, line, col, rule: Finding(  # noqa: E731
            path, line, col, rule, Severity.ERROR, "m"
        )
        findings = [
            make("b.py", 1, 1, "x"),
            make("a.py", 9, 1, "x"),
            make("a.py", 2, 5, "x"),
            make("a.py", 2, 1, "z"),
            make("a.py", 2, 1, "a"),
        ]
        ordered = sorted(findings)
        assert [(f.path, f.line, f.column, f.rule) for f in ordered] == [
            ("a.py", 2, 1, "a"),
            ("a.py", 2, 1, "z"),
            ("a.py", 2, 5, "x"),
            ("a.py", 9, 1, "x"),
            ("b.py", 1, 1, "x"),
        ]

    def test_format_is_grep_friendly(self):
        finding = Finding("src/m.py", 3, 7, "null-compare", Severity.ERROR, "boom")
        assert finding.format() == "src/m.py:3:7: error: [null-compare] boom"


class TestDirectiveParsing:
    def test_line_file_and_package_kinds(self):
        source = (
            "# qpiadlint: disable-file=rule-a\n"
            "x = 1  # qpiadlint: disable=rule-b,rule-c\n"
            "# qpiadlint: disable-next-line=rule-d\n"
            "y = 2\n"
            "# qpiadlint: disable-package=rule-e\n"
        )
        # The line and file kinds parse; the retired next-line and package
        # spellings are not directives.
        assert list(parse_directives(source)) == [
            ("disable-file", 1, frozenset({"rule-a"})),
            ("disable", 2, frozenset({"rule-b", "rule-c"})),
        ]

    def test_directives_inside_strings_are_ignored(self):
        source = 's = "# qpiadlint: disable=rule-a"\n'
        assert list(parse_directives(source)) == []

    def test_disable_all_is_rejected(self):
        with pytest.raises(LintConfigError):
            list(parse_directives("x = 1  # qpiadlint: disable=all\n"))

    def test_unrelated_comments_are_ignored(self):
        assert list(parse_directives("x = 1  # a plain comment\n")) == []


class TestSuppressionIndex:
    def _finding(self, rule: str, line: int) -> Finding:
        return Finding("m.py", line, 1, rule, Severity.ERROR, "m")

    def test_line_suppression_only_hits_its_line(self):
        index = SuppressionIndex.from_source("x = 1  # qpiadlint: disable=rule-a\n")
        assert index.is_suppressed(self._finding("rule-a", 1))
        assert not index.is_suppressed(self._finding("rule-a", 2))
        assert not index.is_suppressed(self._finding("rule-b", 1))

    def test_file_suppression_hits_everywhere(self):
        index = SuppressionIndex.from_source("# qpiadlint: disable-file=rule-a\n")
        assert index.is_suppressed(self._finding("rule-a", 99))


class TestModuleContext:
    def test_in_package_matches_prefix_not_substring(self):
        context = ModuleContext.from_source("x = 1\n", module="repro.core.qpiad")
        assert context.in_package("repro.core")
        assert context.in_package("repro.core.qpiad")
        assert not context.in_package("repro.corelike")
        assert not context.in_package("repro.query")
