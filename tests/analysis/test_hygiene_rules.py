"""Tests for the hygiene rules: banned-import, bare-except."""

from repro.analysis.rules.hygiene import BannedImportRule, BareExceptRule


class TestBannedImport:
    rule = BannedImportRule()

    def test_flags_plain_import(self, check):
        findings = check(self.rule, "import pandas\n")
        assert [f.rule for f in findings] == ["banned-import"]

    def test_flags_submodule_and_from_imports(self, check):
        findings = check(
            self.rule,
            """
            import scipy.stats
            from sklearn.naive_bayes import GaussianNB
            """,
        )
        assert len(findings) == 2

    def test_allowed_imports_are_clean(self, check):
        assert (
            check(
                self.rule,
                """
                import numpy as np
                from repro.relational import Relation
                """,
            )
            == []
        )

    def test_file_suppression(self, report):
        result = report(
            self.rule,
            """
            # qpiadlint: disable-file=banned-import
            import pandas
            import scipy
            """,
        )
        assert result.findings == []
        assert result.suppressed_count == 2


class TestBareExcept:
    rule = BareExceptRule()

    def test_flags_bare_except(self, check):
        findings = check(
            self.rule,
            """
            try:
                probe()
            except:
                pass
            """,
        )
        assert [f.rule for f in findings] == ["bare-except"]

    def test_flags_swallowed_broad_exception(self, check):
        findings = check(
            self.rule,
            """
            for source in sources:
                try:
                    source.query(q)
                except Exception:
                    continue
            """,
        )
        assert len(findings) == 1
        assert "swallows" in findings[0].message

    def test_specific_handler_is_clean(self, check):
        assert (
            check(
                self.rule,
                """
                try:
                    probe()
                except QueryBudgetExceededError:
                    pass
                """,
            )
            == []
        )

    def test_broad_handler_that_acts_is_clean(self, check):
        assert (
            check(
                self.rule,
                """
                try:
                    probe()
                except Exception as exc:
                    log(exc)
                    raise
                """,
            )
            == []
        )

    def test_line_suppression(self, report):
        result = report(
            self.rule,
            """
            try:
                probe()
            except:  # qpiadlint: disable=bare-except
                pass
            """,
        )
        assert result.findings == []
        assert result.suppressed_count == 1
