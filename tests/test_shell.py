"""The interactive shell (§6.1 live-demo analogue)."""

import io

import pytest

from repro.shell import QpiadShell


@pytest.fixture()
def shell(cars_env):
    out = io.StringIO()
    instance = QpiadShell(
        cars_env.test, cars_env.knowledge, source_name="cars", stdout=out
    )
    instance.use_rawinput = False
    return instance, out


def _output(out: io.StringIO) -> str:
    return out.getvalue()


class TestQueryCommand:
    def test_query_prints_certain_and_possible(self, shell):
        instance, out = shell
        instance.onecmd("query body_style=Convt")
        text = _output(out)
        assert "certain answers" in text
        assert "ranked possible answers" in text
        assert "conf=" in text
        assert instance.last_result is not None

    def test_query_with_range(self, shell):
        instance, out = shell
        instance.onecmd("query body_style=Convt price=15000..40000")
        assert "certain answers" in _output(out)

    def test_malformed_query_reports_error(self, shell):
        instance, out = shell
        instance.onecmd("query nonsense")
        assert "error:" in _output(out)

    def test_empty_query_reports_error(self, shell):
        instance, out = shell
        instance.onecmd("query")
        assert "error:" in _output(out)


class TestSqlCommand:
    def test_sql_query(self, shell):
        instance, out = shell
        instance.onecmd("sql body_style = 'Convt' AND price BETWEEN 10000 AND 60000")
        text = _output(out)
        assert "certain answers" in text
        assert instance.last_result is not None

    def test_sql_prints_the_cost_line(self, shell):
        instance, out = shell
        instance.onecmd("sql body_style = 'Convt'")
        assert "cost: " in _output(out)
        assert "queries" in _output(out)

    def test_sql_rejects_disjunction(self, shell):
        instance, out = shell
        instance.onecmd("sql make = 'Honda' OR make = 'BMW'")
        assert "error:" in _output(out)

    def test_sql_rejects_incomparable_between_bounds(self, shell):
        instance, out = shell
        instance.onecmd("sql price between 5 and abc")
        assert "error:" in _output(out)
        assert "not comparable" in _output(out)


class TestExplainCommand:
    def test_explains_a_ranked_answer(self, shell):
        instance, out = shell
        instance.onecmd("query body_style=Convt")
        instance.onecmd("explain 1")
        text = _output(out)
        assert "confidence" in text
        assert "retrieved by" in text

    def test_explain_without_query_is_graceful(self, shell):
        instance, out = shell
        instance.onecmd("explain 1")
        assert "run a query first" in _output(out)

    def test_out_of_range_rank(self, shell):
        instance, out = shell
        instance.onecmd("query body_style=Convt")
        instance.onecmd("explain 99999")
        assert "between 1 and" in _output(out)


class TestOtherCommands:
    def test_afds_lists_dependencies(self, shell):
        instance, out = shell
        instance.onecmd("afds body_style")
        assert "~>" in _output(out)

    def test_afds_unknown_attribute(self, shell):
        instance, out = shell
        instance.onecmd("afds nonexistent")
        assert "no AFDs" in _output(out)

    def test_relax(self, shell):
        instance, out = shell
        instance.onecmd("relax make=Porsche price=6000..8000")
        assert "sim=" in _output(out)

    def test_set_alpha_and_k(self, shell):
        instance, out = shell
        instance.onecmd("set alpha 1.5")
        instance.onecmd("set k 3")
        assert instance.alpha == 1.5
        assert instance.k == 3

    def test_set_rejects_garbage(self, shell):
        instance, out = shell
        instance.onecmd("set alpha minus-two")
        assert "invalid value" in _output(out)
        instance.onecmd("set gamma 3")
        assert "usage:" in _output(out)

    def test_stats(self, shell):
        instance, out = shell
        instance.onecmd("stats")
        text = _output(out)
        assert "incomplete tuples" in text

    def test_quit_returns_true(self, shell):
        instance, __ = shell
        assert instance.onecmd("quit") is True
        assert instance.onecmd("exit") is True

    def test_unknown_command(self, shell):
        instance, out = shell
        instance.onecmd("frobnicate now")
        assert "unknown command" in _output(out)

    def test_help_does_not_list_internal_helpers(self, shell):
        instance, out = shell
        instance.onecmd("help")
        text = _output(out)
        assert "query" in text and "sql" in text
        assert "query_object" not in text

    def test_internal_helper_is_not_a_command(self, shell):
        instance, out = shell
        instance.onecmd("query_object x")
        assert "unknown command 'query_object'" in _output(out)

    def test_empty_line_is_a_no_op(self, shell):
        instance, out = shell
        before = _output(out)
        instance.onecmd("")
        assert _output(out) == before


class TestScriptedSession:
    def test_full_session_via_cmdloop(self, cars_env):
        stdin = io.StringIO("query body_style=Convt\nexplain 1\nquit\n")
        stdout = io.StringIO()
        instance = QpiadShell(
            cars_env.test,
            cars_env.knowledge,
            source_name="cars",
            stdin=stdin,
            stdout=stdout,
        )
        instance.use_rawinput = False
        instance.cmdloop()
        text = stdout.getvalue()
        assert "ranked possible answers" in text
        assert "confidence" in text
