"""Tests for the SQL NULL-semantics rules (null-compare, null-in-predicate-literal)."""

from repro.analysis.rules.null_semantics import (
    NullCompareRule,
    NullInPredicateLiteralRule,
)


class TestNullCompare:
    rule = NullCompareRule()

    # -- positives ---------------------------------------------------------

    def test_flags_equality_against_null_singleton(self, check):
        findings = check(
            self.rule,
            """
            def scan(row):
                if row[0] == NULL:
                    return True
            """,
        )
        assert [f.rule for f in findings] == ["null-compare"]
        assert "is_null" in findings[0].message

    def test_flags_not_equal_against_null_singleton(self, check):
        findings = check(self.rule, "ok = value != NULL\n")
        assert len(findings) == 1

    def test_flags_is_none_on_row_subscript(self, check):
        findings = check(
            self.rule,
            """
            def probe(row, i):
                return row[i] is None
            """,
        )
        assert len(findings) == 1
        assert "NULL singleton" in findings[0].message

    def test_flags_is_none_on_row_bound_local(self, check):
        findings = check(
            self.rule,
            """
            def probe(row):
                value = row[2]
                if value is None:
                    return 0
            """,
        )
        assert len(findings) == 1

    # -- negatives ---------------------------------------------------------

    def test_is_null_call_is_clean(self, check):
        assert (
            check(
                self.rule,
                """
                def probe(row):
                    return is_null(row[0])
                """,
            )
            == []
        )

    def test_is_none_on_unrelated_name_is_clean(self, check):
        assert check(self.rule, "done = cursor is None\n") == []

    def test_row_binding_does_not_leak_across_functions(self, check):
        # `value` is row-bound only in f(); g()'s `value is None` is fine.
        assert (
            check(
                self.rule,
                """
                def f(row):
                    value = row[0]
                    return value

                def g(value=None):
                    return value is None
                """,
            )
            == []
        )

    # -- suppression -------------------------------------------------------

    def test_line_suppression_silences_the_finding(self, report):
        result = report(
            self.rule,
            "bad = row[0] == NULL  # qpiadlint: disable=null-compare\n",
        )
        assert result.findings == []
        assert result.suppressed_count == 1


class TestNullInPredicateLiteral:
    rule = NullInPredicateLiteralRule()

    # -- positives ---------------------------------------------------------

    def test_flags_equals_with_none(self, check):
        findings = check(self.rule, 'pred = Equals("make", None)\n')
        assert [f.rule for f in findings] == ["null-in-predicate-literal"]

    def test_flags_keyword_null_singleton(self, check):
        findings = check(self.rule, 'pred = Between("price", low=NULL, high=10)\n')
        assert len(findings) == 1

    def test_flags_none_inside_oneof_list(self, check):
        findings = check(self.rule, 'pred = OneOf("body", ["sedan", None])\n')
        assert len(findings) == 1

    # -- negatives ---------------------------------------------------------

    def test_concrete_literals_are_clean(self, check):
        assert check(self.rule, 'pred = Equals("make", "Honda")\n') == []

    def test_unrelated_call_with_none_is_clean(self, check):
        assert check(self.rule, "result = lookup(key, None)\n") == []

    # -- suppression -------------------------------------------------------

    def test_line_suppression(self, report):
        result = report(
            self.rule,
            'pred = Equals("make", None)  # qpiadlint: disable=null-in-predicate-literal\n',
        )
        assert result.findings == []
        assert result.suppressed_count == 1
