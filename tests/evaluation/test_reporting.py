"""ASCII table/series rendering."""

from repro.evaluation import render_curves, render_series, render_table
from repro.evaluation.stats import incompleteness_report
from repro.relational import NULL, Relation, Schema


class TestRenderTable:
    def test_alignment_and_title(self):
        text = render_table(
            ["name", "value"], [["a", 1], ["long-name", 22]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert all(len(line) == len(lines[1]) for line in lines[3:])

    def test_empty_rows(self):
        text = render_table(["x"], [])
        assert "x" in text


class TestRenderSeries:
    def test_points_rendered_with_labels(self):
        text = render_series("Fig", [(0.1, 0.9), (0.2, 0.8)], "recall", "precision")
        assert "recall" in text and "0.1000" in text and "0.8000" in text

    def test_non_float_points(self):
        text = render_series("Fig", [(1, "n/a")])
        assert "n/a" in text


class TestRenderCurves:
    def test_multiple_series_stacked(self):
        text = render_curves(
            "Figure 3", {"QPIAD": [(0.0, 1.0)], "AllReturned": [(0.0, 0.1)]}
        )
        assert "[QPIAD]" in text and "[AllReturned]" in text


class TestIncompletenessReport:
    def test_table1_statistics(self):
        relation = Relation(
            Schema.of("a", "b"),
            [(1, 2), (NULL, 2), (1, NULL), (NULL, NULL)],
        )
        report = incompleteness_report("test-db", relation)
        assert report.incomplete_tuples_pct == 75.0
        assert report.attribute_null_pct["a"] == 50.0
        row = report.row(["a", "b"])
        assert row[0] == "test-db" and row[3] == "75.00%"

    def test_empty_relation(self):
        report = incompleteness_report("empty", Relation(Schema.of("a"), []))
        assert report.incomplete_tuples_pct == 0.0
