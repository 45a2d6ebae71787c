"""Tests for the mediator autonomy rules (raw-relation-access,
raw-source-call-in-core)."""

from repro.analysis.rules.mediator import RawRelationAccessRule, RawSourceCallRule


class TestRawRelationAccess:
    rule = RawRelationAccessRule()

    # -- positives ---------------------------------------------------------

    def test_flags_relation_construction_in_core(self, check):
        findings = check(
            self.rule,
            "result = Relation(schema, rows)\n",
            module="repro.core.rewriter",
        )
        assert [f.rule for f in findings] == ["raw-relation-access"]
        assert "AutonomousSource" in findings[0].message

    def test_flags_relation_construction_in_planner(self, check):
        findings = check(
            self.rule,
            "candidates = Relation(schema, rows)\n",
            module="repro.planner.planner",
        )
        assert [f.rule for f in findings] == ["raw-relation-access"]

    def test_flags_rows_attribute_read(self, check):
        findings = check(
            self.rule,
            "data = base.rows\n",
            module="repro.engine.engine",
        )
        assert len(findings) == 1
        assert ".rows" in findings[0].message

    def test_flags_read_csv_call_and_import(self, check):
        findings = check(
            self.rule,
            """
            from repro.relational.io import read_csv

            table = read_csv(path)
            """,
            module="repro.planner.planner",
        )
        assert len(findings) == 2

    # -- negatives ---------------------------------------------------------

    def test_non_mediator_module_is_out_of_scope(self, check):
        assert (
            check(
                self.rule,
                "result = Relation(schema, rows)\n",
                module="repro.sources.autonomous",
            )
            == []
        )

    def test_self_rows_attribute_is_clean(self, check):
        assert (
            check(
                self.rule,
                """
                class Answer:
                    def first(self):
                        return self.rows[0]
                """,
                module="repro.core.results",
            )
            == []
        )

    # -- suppression -------------------------------------------------------

    def test_result_assembly_suppression(self, report):
        result = report(
            self.rule,
            "out = Relation(schema, rows)  # qpiadlint: disable=raw-relation-access\n",
            module="repro.core.results",
        )
        assert result.findings == []
        assert result.suppressed_count == 1


class TestRawSourceCall:
    rule = RawSourceCallRule()

    # -- positives ---------------------------------------------------------

    def test_flags_direct_execute_in_core(self, check):
        findings = check(
            self.rule,
            "rows = self.source.execute(query)\n",
            module="repro.core.qpiad",
        )
        assert [f.rule for f in findings] == ["raw-source-call-in-core"]
        assert "RetrievalEngine" in findings[0].message

    def test_flags_every_source_surface_method(self, check):
        findings = check(
            self.rule,
            """
            a = source.execute(q)
            b = source.execute_null_binding(q, max_nulls=None)
            """,
            module="repro.core.baselines",
        )
        assert len(findings) == 2

    # -- negatives ---------------------------------------------------------

    def test_engine_package_is_out_of_scope(self, check):
        # The engine *is* the sanctioned caller.
        assert (
            check(
                self.rule,
                "rows = source.execute(query)\n",
                module="repro.engine.engine",
            )
            == []
        )

    def test_other_layers_are_out_of_scope(self, check):
        assert (
            check(
                self.rule,
                "rows = self.inner.execute(query)\n",
                module="repro.faults.injecting",
            )
            == []
        )

    def test_engine_mediated_calls_are_clean(self, check):
        assert (
            check(
                self.rule,
                """
                for step, retrieved in engine.stream(plan):
                    merge(step, retrieved)
                """,
                module="repro.core.qpiad",
            )
            == []
        )
