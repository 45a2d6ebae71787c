"""Reporter contract: grep-friendly text."""

from repro.analysis import Finding, Severity, render_text
from repro.analysis.runner import LintReport


def _report() -> LintReport:
    # Deliberately unsorted input: the reporter must not depend on insertion order.
    findings = [
        Finding("b.py", 4, 1, "unseeded-rng", Severity.ERROR, "later file"),
        Finding("a.py", 9, 2, "bare-except", Severity.WARNING, "later line"),
        Finding("a.py", 2, 1, "null-compare", Severity.ERROR, "first"),
    ]
    return LintReport(findings=findings, suppressed_count=3, files_checked=2)


class TestTextReport:
    def test_findings_then_summary(self):
        text = render_text(_report())
        lines = text.splitlines()
        assert lines[-1] == (
            "3 finding(s) (2 error(s), 1 warning(s)) in 2 file(s); 3 suppressed"
        )
        assert "a.py:2:1: error: [null-compare] first" in lines

    def test_clean_report_says_clean(self):
        text = render_text(LintReport(files_checked=5, suppressed_count=1))
        assert text == "clean: 5 file(s), 1 finding(s) suppressed"
