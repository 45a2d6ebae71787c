"""The ``--admission`` knobs on ``qpiad query`` and ``qpiad chaos``."""

import re

import pytest

from repro.cli import _parse_admission, main
from repro.errors import QpiadError
from repro.resilience import SourcePolicy


@pytest.fixture()
def cars_ed_csv(tmp_path):
    path = tmp_path / "cars_ed.csv"
    code = main(
        ["generate", "cars", "--size", "1200", "--out", str(path), "--incomplete", "0.1"]
    )
    assert code == 0
    return path


class TestParseAdmission:
    def test_no_specs_means_no_scheduler(self):
        assert _parse_admission(None) is None
        assert _parse_admission([]) is None

    def test_numeric_keys_build_the_default_policy(self):
        policy = _parse_admission(
            ["rate=250", "burst=8", "concurrent=4", "queue=16"]
        )
        assert policy == SourcePolicy(
            rate_per_second=250.0, burst=8, max_concurrent=4, max_queue=16
        )
        assert policy.rate_per_second == 250.0
        assert policy.burst == 8
        assert policy.max_concurrent == 4
        assert policy.max_queue == 16

    def test_malformed_spec_is_rejected(self):
        with pytest.raises(QpiadError, match="expected KEY=VALUE"):
            _parse_admission(["rate"])
        with pytest.raises(QpiadError, match="expected KEY=VALUE"):
            _parse_admission(["rate="])

    def test_unknown_key_lists_the_known_ones(self):
        with pytest.raises(QpiadError, match="known keys: .*burst"):
            _parse_admission(["ratelimit=5"])
        # A key that names no SourcePolicy field is rejected, not ignored.
        with pytest.raises(
            QpiadError,
            match="unknown --admission key 'hedge'; "
            "known keys: burst, concurrent, queue, rate$",
        ):
            _parse_admission(["hedge=on"])

    def test_bad_value_type_is_rejected(self):
        with pytest.raises(QpiadError, match="expects a float"):
            _parse_admission(["rate=fast"])
        with pytest.raises(QpiadError, match="--admission queue expects"):
            _parse_admission(["queue=many"])

    def test_invalid_policy_values_surface_as_qpiad_errors(self):
        with pytest.raises(QpiadError):
            _parse_admission(["burst=0"])


class TestQueryWithAdmission:
    def test_query_reports_admission_counters(self, cars_ed_csv, capsys):
        code = main(
            [
                "query",
                str(cars_ed_csv),
                "--where",
                "body_style=Convt",
                "--admission",
                "rate=10000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert re.search(r"^admission: \d+ admitted, 0 shed$", out, flags=re.M)

    def test_a_queue_of_zero_is_a_usage_error(self, cars_ed_csv, capsys):
        # A zero bound would shed the base query with every slot free.
        code = main(
            [
                "query",
                str(cars_ed_csv),
                "--where",
                "body_style=Convt",
                "--admission",
                "queue=0",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "max_queue must be at least 1, got 0" in captured.err
        # The usage error is reported before any knowledge is mined.
        assert "mining" not in captured.err

    def test_answers_match_the_unscheduled_run(self, cars_ed_csv, capsys):
        args = ["query", str(cars_ed_csv), "--where", "body_style=Convt"]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert main(args + ["--admission", "queue=32"]) == 0
        scheduled = capsys.readouterr().out
        # Identical ranked output; the admission line is purely additive.
        plain_rows = [l for l in plain.splitlines() if not l.startswith("admission")]
        rows = [l for l in scheduled.splitlines() if not l.startswith("admission")]
        assert rows == plain_rows

    def test_query_without_admission_prints_no_counters(self, cars_ed_csv, capsys):
        assert main(["query", str(cars_ed_csv), "--where", "make=Honda"]) == 0
        assert "admission:" not in capsys.readouterr().out


class TestChaosWithAdmission:
    @pytest.mark.parametrize("width", ["1", "4"])
    def test_chaos_passes_under_admission_control(self, width, capsys):
        code = main(
            [
                "chaos",
                "--size",
                "600",
                "--seed",
                "2",
                "--admission",
                "rate=10000",
                "--admission",
                "queue=32",
                "--concurrency",
                width,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos: ok" in out
        assert "load-shed across faulty runs" in out
        if width == "1":
            # Serially, every query's faulty run replays identically under
            # admission control too.
            query_lines = [line for line in out.splitlines() if "replay" in line]
            assert len(query_lines) == 3
            assert all(line.endswith("replay identical") for line in query_lines)
