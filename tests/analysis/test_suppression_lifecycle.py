"""Stale-suppression reporting."""

from __future__ import annotations

import textwrap

from repro.analysis.runner import lint_paths


def _write(root, files):
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")


class TestUnusedSuppressions:
    def test_stale_line_directive_reported_under_strict(self, tmp_path):
        _write(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/mod.py": "x = 1  # qpiadlint: disable=bare-except\n",
            },
        )
        report = lint_paths([tmp_path])
        assert [f.rule for f in report.findings] == ["unused-suppression"]
        assert "bare-except" in report.findings[0].message

    def test_used_directives_are_not_reported(self, tmp_path):
        _write(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/mod.py": """
                    def f():
                        try:
                            return 1
                        except:  # qpiadlint: disable=bare-except
                            pass
                """,
            },
        )
        report = lint_paths([tmp_path])
        assert report.findings == []
        assert report.suppressed_count == 1

    def test_unknown_rule_name_reported_even_when_inactive(self, tmp_path):
        _write(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/mod.py": "x = 1  # qpiadlint: disable=no-such-rule\n",
            },
        )
        report = lint_paths([tmp_path])
        assert [f.rule for f in report.findings] == ["unused-suppression"]
        assert "unknown rule" in report.findings[0].message

    def test_stale_disable_file_reported(self, tmp_path):
        _write(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/mod.py": "# qpiadlint: disable-file=bare-except\nx = 1\n",
            },
        )
        report = lint_paths([tmp_path])
        assert [f.rule for f in report.findings] == ["unused-suppression"]
