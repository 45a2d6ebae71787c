"""SARIF 2.1.0 output: structure, levels, and byte stability."""

from __future__ import annotations

import json

from repro.analysis.framework import Finding, Severity
from repro.analysis.reporting import iter_rule_rows, render_sarif
from repro.analysis.runner import LintReport


def _report() -> LintReport:
    return LintReport(
        findings=[
            Finding(
                path="src/repro/b.py",
                line=3,
                column=5,
                rule="bare-except",
                severity=Severity.WARNING,
                message="second",
            ),
            Finding(
                path="src/repro/a.py",
                line=10,
                column=1,
                rule="null-compare",
                severity=Severity.ERROR,
                message="first",
            ),
        ],
        suppressed_count=1,
        files_checked=2,
    )


class TestSarif:
    def test_schema_and_version(self):
        payload = json.loads(render_sarif(_report()))
        assert payload["version"] == "2.1.0"
        assert payload["$schema"].endswith("sarif-2.1.0.json")
        assert len(payload["runs"]) == 1
        assert payload["runs"][0]["tool"]["driver"]["name"] == "qpiadlint"

    def test_results_are_sorted_and_mapped(self):
        results = json.loads(render_sarif(_report()))["runs"][0]["results"]
        assert [r["ruleId"] for r in results] == ["null-compare", "bare-except"]
        assert [r["level"] for r in results] == ["error", "warning"]
        location = results[0]["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/a.py"
        assert location["region"] == {"startLine": 10, "startColumn": 1}

    def test_rule_metadata_covers_every_reportable_id(self):
        driver = json.loads(render_sarif(LintReport()))["runs"][0]["tool"]["driver"]
        declared = {rule["id"] for rule in driver["rules"]}
        expected = {row.id for row in iter_rule_rows()}
        assert declared == expected
        # Module rules and runner pseudo-rules are declared alike.
        assert {"unguarded-shared-write", "unseeded-rng"} <= declared
        assert {"parse-error", "unused-suppression"} <= declared

    def test_rule_metadata_carries_descriptions_and_levels(self):
        driver = json.loads(render_sarif(LintReport()))["runs"][0]["tool"]["driver"]
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]
            assert rule["help"]["text"]
            assert rule["defaultConfiguration"]["level"] in {"error", "warning", "note"}

    def test_output_is_byte_stable(self):
        assert render_sarif(_report()) == render_sarif(_report())

    def test_empty_report_has_no_results(self):
        payload = json.loads(render_sarif(LintReport()))
        assert payload["runs"][0]["results"] == []
