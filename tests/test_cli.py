"""The qpiad command-line interface."""

import re

import pytest

from repro.cli import build_parser, main

#: The plan header's tallies: what was generated and what each gate skipped.
PLAN_TALLIES = (
    r"\(\d+ generated, \d+ inexpressible, \d+ below confidence, "
    r"\d+ zero selectivity\)"
)


@pytest.fixture()
def cars_csv(tmp_path):
    path = tmp_path / "cars.csv"
    assert main(["generate", "cars", "--size", "800", "--out", str(path)]) == 0
    return path


@pytest.fixture()
def cars_ed_csv(tmp_path):
    path = tmp_path / "cars_ed.csv"
    code = main(
        ["generate", "cars", "--size", "1500", "--out", str(path), "--incomplete", "0.1"]
    )
    assert code == 0
    return path


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "laptops", "--out", "x.csv"])


class TestGenerate:
    def test_writes_complete_csv(self, cars_csv, capsys):
        from repro.relational import read_csv

        relation = read_csv(cars_csv)
        assert len(relation) == 800
        assert relation.incomplete_fraction() == 0.0

    def test_incomplete_flag_masks_tuples(self, cars_ed_csv):
        from repro.relational import read_csv

        relation = read_csv(cars_ed_csv)
        assert relation.incomplete_fraction() == pytest.approx(0.1, abs=0.01)


class TestStats(object):
    def test_reports_incompleteness(self, cars_ed_csv, capsys):
        assert main(["stats", str(cars_ed_csv)]) == 0
        out = capsys.readouterr().out
        assert "incomplete tuples" in out
        assert "10.00%" in out


class TestMineAndQuery:
    def test_mine_writes_a_loadable_kb(self, cars_ed_csv, tmp_path, capsys):
        kb_path = tmp_path / "kb.json"
        code = main(
            ["mine", str(cars_ed_csv), "--db-size", "15000", "--out", str(kb_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "AFDs" in out
        from repro.mining.persistence import load_knowledge

        knowledge = load_knowledge(kb_path)
        assert knowledge.best_afd("body_style") is not None

    def test_query_with_kb(self, cars_ed_csv, tmp_path, capsys):
        kb_path = tmp_path / "kb.json"
        main(["mine", str(cars_ed_csv), "--db-size", "15000", "--out", str(kb_path)])
        capsys.readouterr()
        code = main(
            [
                "query",
                str(cars_ed_csv),
                "--kb",
                str(kb_path),
                "--where",
                "body_style=Convt",
                "--top",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "certain answers" in out
        assert "possible answers" in out

    def test_query_with_range_conjunct(self, cars_ed_csv, capsys):
        code = main(
            [
                "query",
                str(cars_ed_csv),
                "--where",
                "body_style=Convt",
                "--where",
                "price=15000..40000",
            ]
        )
        assert code == 0

    def test_query_stream_prints_incremental_answers(self, cars_ed_csv, capsys):
        code = main(
            [
                "query",
                str(cars_ed_csv),
                "--where",
                "body_style=Convt",
                "--top",
                "3",
                "--stream",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "streaming ranked possible answers" in out
        # Each streamed answer is stamped with its elapsed arrival time.
        assert "[+" in out
        assert "cost so far:" in out

    def test_query_stream_stops_at_top(self, cars_ed_csv, capsys):
        code = main(
            [
                "query",
                str(cars_ed_csv),
                "--where",
                "body_style=Convt",
                "--top",
                "1",
                "--stream",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("conf=") == 1

    def test_query_mines_on_the_fly_without_kb(self, cars_ed_csv, capsys):
        code = main(["query", str(cars_ed_csv), "--where", "make=Honda"])
        assert code == 0
        # The note goes to stderr so machine-readable stdout stays clean.
        assert "mining a knowledge base" in capsys.readouterr().err

    def test_bad_where_clause_reports_an_error(self, cars_ed_csv, capsys):
        code = main(["query", str(cars_ed_csv), "--where", "nonsense"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_numeric_parse_error_reported(self, cars_ed_csv, capsys):
        code = main(["query", str(cars_ed_csv), "--where", "price=cheap"])
        assert code == 2


class TestPlan:
    def test_plan_prints_ranked_rewrites_without_source_calls(
        self, cars_ed_csv, capsys
    ):
        code = main(["plan", str(cars_ed_csv), "--where", "body_style=Convt"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rewritten queries to issue" in out
        assert re.search(PLAN_TALLIES, out)
        assert "0 source calls" in out  # plan-only mode never touches the source
        assert "P=" in out and "R=" in out and "F(alpha=" in out

    def test_plan_counts_rewrites_it_skips_for_zero_selectivity(
        self, cars_ed_csv, capsys
    ):
        """K is a ceiling: two of the ten top-ranked rewritings match no
        sample row, so the plan issues eight."""
        assert main(["plan", str(cars_ed_csv), "--where", "model=Civic"]) == 0
        out = capsys.readouterr().out
        assert "plan: 8 rewritten queries to issue (23 generated, " in out
        assert "0 below confidence, 2 zero selectivity)" in out
        steps = [line for line in out.splitlines() if line.startswith("  [")]
        assert len(steps) == 8

    def test_plan_respects_k_budget(self, cars_ed_csv, capsys):
        assert main(
            ["plan", str(cars_ed_csv), "--where", "body_style=Convt", "--k", "2"]
        ) == 0
        out = capsys.readouterr().out
        steps = [line for line in out.splitlines() if line.startswith("  [")]
        assert 1 <= len(steps) <= 2

    def test_plan_bad_where_clause_reports_an_error(self, cars_ed_csv, capsys):
        assert main(["plan", str(cars_ed_csv), "--where", "nonsense"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_plan_rejects_min_confidence_above_one(self, cars_ed_csv, capsys):
        argv = ["plan", str(cars_ed_csv), "--where", "body_style=Convt"]
        assert main([*argv, "--min-confidence", "1.5"]) == 2
        assert "min_confidence must be in [0, 1]" in capsys.readouterr().err


class TestExplain:
    def test_query_explain_appends_the_executed_plan(self, cars_ed_csv, capsys):
        code = main(
            ["query", str(cars_ed_csv), "--where", "body_style=Convt", "--explain"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "certain answers" in out
        assert "possible answers" in out
        assert "rewritten queries to issue" in out
        assert re.search(PLAN_TALLIES, out)

    def test_query_without_explain_stays_quiet_about_plans(
        self, cars_ed_csv, capsys
    ):
        assert main(["query", str(cars_ed_csv), "--where", "body_style=Convt"]) == 0
        out = capsys.readouterr().out
        assert "rewritten queries to issue" not in out
        assert "zero selectivity" not in out


class TestTrace:
    def test_query_trace_appends_spans_and_counters(self, cars_ed_csv, capsys):
        code = main(
            ["query", str(cars_ed_csv), "--where", "body_style=Convt", "--trace"]
        )
        assert code == 0
        out = capsys.readouterr().out
        answers = out.index("possible answers")
        assert out.index("[retrieval]", answers) > answers
        assert out.index("[base-query]", answers) > answers
        assert "mediator.queries_issued" in out[answers:]

    def test_query_trace_json_prints_only_the_snapshot(self, cars_ed_csv, capsys):
        import json

        code = main(
            [
                "query",
                str(cars_ed_csv),
                "--where",
                "body_style=Convt",
                "--trace",
                "--json",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert {"spans", "metrics"} <= set(payload)
        assert "mining a knowledge base" in captured.err

    def test_json_without_trace_is_a_usage_error(self, cars_ed_csv, capsys):
        code = main(["query", str(cars_ed_csv), "--where", "body_style=Convt", "--json"])
        assert code == 2
        assert "--trace" in capsys.readouterr().err


class TestRelax:
    def test_relax_returns_answers_for_empty_queries(self, cars_ed_csv, capsys):
        code = main(
            [
                "relax",
                str(cars_ed_csv),
                "--where",
                "make=Porsche",
                "--where",
                "price=6000..8000",
                "--target",
                "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "relaxed" in out
        assert "violates" in out

    def test_relax_single_conjunct_reports_error(self, cars_ed_csv, capsys):
        code = main(["relax", str(cars_ed_csv), "--where", "make=Porsche"])
        assert code == 2


class TestImpute:
    def test_impute_writes_a_complete_csv(self, cars_ed_csv, tmp_path, capsys):
        out_path = tmp_path / "clean.csv"
        code = main(["impute", str(cars_ed_csv), "--out", str(out_path)])
        assert code == 0
        from repro.relational import read_csv

        cleaned = read_csv(out_path)
        assert cleaned.incomplete_fraction() == 0.0

    def test_impute_respects_confidence_floor(self, cars_ed_csv, tmp_path, capsys):
        out_path = tmp_path / "clean.csv"
        code = main(
            [
                "impute",
                str(cars_ed_csv),
                "--out",
                str(out_path),
                "--min-confidence",
                "0.99",
            ]
        )
        assert code == 0
        from repro.relational import read_csv

        cleaned = read_csv(out_path)
        assert cleaned.incomplete_fraction() > 0.0  # uncertain cells kept NULL


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo", "--size", "1200"]) == 0
        out = capsys.readouterr().out
        assert "certain answers" in out


class TestLint:
    def test_lint_src_repro_is_clean(self, capsys):
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        assert main(["lint", str(src)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_flags_a_violation(self, tmp_path, capsys):
        bad = tmp_path / "repro_core_probe.py"
        bad.write_text("import pandas\n", encoding="utf-8")
        assert main(["lint", str(bad)]) == 1
        assert "banned-import" in capsys.readouterr().out

    def test_lint_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "null-compare" in out
        assert "raw-relation-access" in out

    def test_lint_unknown_rule_is_a_usage_error(self, tmp_path, capsys):
        probe = tmp_path / "probe.py"
        probe.write_text("x = 1  # qpiadlint: disable=all\n", encoding="utf-8")
        assert main(["lint", str(probe)]) == 2
        assert "'disable=all' is not allowed" in capsys.readouterr().err

    def test_lint_missing_path_is_a_usage_error(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "absent")]) == 2
        assert "no such path" in capsys.readouterr().err


@pytest.fixture()
def mined_kb(cars_ed_csv, tmp_path):
    """A KB mined (by the CLI) on the *full* CSV, so probing the same CSV
    measures confidences on the very relation they were mined from — exactly
    fresh, with no sample-size noise."""
    kb_path = tmp_path / "kb.json"
    assert (
        main(["mine", str(cars_ed_csv), "--db-size", "15000", "--out", str(kb_path)])
        == 0
    )
    return kb_path


class TestDrift:
    def test_fresh_probe_reports_fresh_and_exits_zero(
        self, cars_ed_csv, mined_kb, capsys
    ):
        code = main(
            ["drift", str(cars_ed_csv), "--kb", str(mined_kb), "--fresh", str(cars_ed_csv)]
        )
        assert code == 0
        assert "drift: fresh" in capsys.readouterr().out

    def test_drifted_probe_reports_stale_and_exits_nonzero(
        self, cars_ed_csv, mined_kb, tmp_path, capsys
    ):
        from repro.relational import read_csv, write_csv

        relation = read_csv(cars_ed_csv)
        make = relation.schema.index_of("make")
        bmw_only = relation.select(lambda row: row[make] == "BMW")
        probe = tmp_path / "bmw.csv"
        write_csv(bmw_only, probe)
        code = main(
            ["drift", str(cars_ed_csv), "--kb", str(mined_kb), "--fresh", str(probe)]
        )
        assert code == 1
        assert "drift: STALE" in capsys.readouterr().out

    def test_json_output_is_parseable(self, cars_ed_csv, mined_kb, capsys):
        import json

        code = main(
            [
                "drift",
                str(cars_ed_csv),
                "--kb",
                str(mined_kb),
                "--fresh",
                str(cars_ed_csv),
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["is_stale"] is False


class TestRefresh:
    @pytest.fixture()
    def batch_csv(self, cars_ed_csv, tmp_path):
        """A batch re-drawn from the mined sample (bin edges stay put)."""
        from repro.relational import read_csv, write_csv

        relation = read_csv(cars_ed_csv)
        path = tmp_path / "batch.csv"
        write_csv(relation.take(800), path)
        return path

    def test_refresh_folds_and_persists_the_next_epoch(
        self, cars_ed_csv, mined_kb, batch_csv, tmp_path, capsys
    ):
        out = tmp_path / "kb.refreshed.json"
        code = main(
            [
                "refresh",
                str(cars_ed_csv),
                "--kb",
                str(mined_kb),
                "--batch",
                str(batch_csv),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "epoch 1" in capsys.readouterr().out
        from repro.mining.persistence import load_knowledge

        refreshed = load_knowledge(out)
        assert refreshed.epoch == 1
        assert len(refreshed.lineage.batch_digests) == 1

    def test_if_stale_skips_a_fresh_batch(
        self, cars_ed_csv, mined_kb, batch_csv, capsys
    ):
        code = main(
            [
                "refresh",
                str(cars_ed_csv),
                "--kb",
                str(mined_kb),
                "--batch",
                str(batch_csv),
                "--if-stale",
            ]
        )
        assert code == 0
        assert "skipped" in capsys.readouterr().out

    def test_json_reports_mode_and_fingerprints(
        self, cars_ed_csv, mined_kb, batch_csv, capsys
    ):
        import json

        code = main(
            [
                "refresh",
                str(cars_ed_csv),
                "--kb",
                str(mined_kb),
                "--batch",
                str(batch_csv),
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["refreshed"] is True
        assert payload["epoch"] == 1
        assert payload["fingerprint"] != payload["previous_fingerprint"]
