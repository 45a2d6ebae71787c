"""Tests for the data-plane rule: row-loop-in-mining (PR 9)."""

from repro.analysis import Severity
from repro.analysis.rules.dataplane import MINING_HOT_MODULES, RowLoopInMiningRule

MINING = "repro.mining.nbc"


class TestRowLoopInMining:
    rule = RowLoopInMiningRule()

    def test_flags_for_loop_over_rows_attribute(self, check):
        findings = check(
            self.rule,
            """
            def count(relation):
                total = 0
                for row in relation.rows:
                    total += 1
                return total
            """,
            module=MINING,
        )
        assert [f.rule for f in findings] == ["row-loop-in-mining"]
        assert findings[0].severity is Severity.WARNING
        assert ".rows" in findings[0].message

    def test_flags_loop_over_partition_classes(self, check):
        findings = check(
            self.rule,
            """
            def refine(partition):
                for cls in partition.classes:
                    pass
            """,
            module="repro.mining.partitions",
        )
        assert [f.rule for f in findings] == ["row-loop-in-mining"]

    def test_flags_iteration_of_relation_annotated_parameter(self, check):
        findings = check(
            self.rule,
            """
            def train(sample: Relation) -> None:
                for row in sample:
                    pass
            """,
            module=MINING,
        )
        assert len(findings) == 1
        assert "'sample'" in findings[0].message

    def test_flags_string_annotation_and_comprehension(self, check):
        findings = check(
            self.rule,
            """
            def score(relation: "Relation") -> list:
                return [row for row in relation]
            """,
            module=MINING,
        )
        assert [f.rule for f in findings] == ["row-loop-in-mining"]

    def test_flags_enumerate_over_rows(self, check):
        findings = check(
            self.rule,
            """
            def index(relation):
                for position, row in enumerate(relation.rows):
                    pass
            """,
            module="repro.mining.partitions",
        )
        assert len(findings) == 1

    def test_unannotated_parameter_iteration_is_clean(self, check):
        # Without a Relation annotation the rule cannot tell a relation from
        # a plain list; it stays silent rather than guessing.
        assert (
            check(
                self.rule,
                """
                def tally(values):
                    for value in values:
                        pass
                """,
                module=MINING,
            )
            == []
        )

    def test_modules_outside_mining_hot_paths_are_clean(self, check):
        source = """
        def scan(relation: Relation):
            for row in relation.rows:
                pass
        """
        assert check(self.rule, source, module="repro.query.executor") == []
        assert check(self.rule, source, module="repro.relational.relation") == []

    def test_hot_module_list_covers_the_vectorized_modules(self):
        assert "repro.mining.partitions" in MINING_HOT_MODULES
        assert "repro.mining.nbc" in MINING_HOT_MODULES
        assert "repro.mining.tane" in MINING_HOT_MODULES

    def test_line_suppression(self, report):
        result = report(
            self.rule,
            """
            def train(sample: Relation) -> None:
                for row in sample:  # qpiadlint: disable=row-loop-in-mining
                    pass
            """,
            module=MINING,
        )
        assert result.findings == []
        assert result.suppressed_count == 1
