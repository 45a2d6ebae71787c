"""Edge-path coverage across modules that the main suites touch lightly."""

import io


from repro.query import SelectionQuery


class TestEnvironmentOptions:
    def test_web_source_capability_kwargs(self, cars_env):
        source = cars_env.web_source(max_results=5, query_budget=3)
        result = source.execute(SelectionQuery.equals("body_style", "Sedan"))
        assert len(result) == 5
        assert source.capabilities.query_budget == 3

    def test_attribute_weights_skew_masking(self):
        from repro.datasets import generate_cars
        from repro.evaluation import build_environment

        env = build_environment(
            generate_cars(1500, seed=3),
            seed=5,
            attribute_weights={"body_style": 20.0},
            name="skewed",
        )
        body_masked = sum(
            1 for cell in env.dataset.masked if cell.attribute == "body_style"
        )
        assert body_masked / len(env.dataset.masked) > 0.5


class TestRunShell:
    def test_run_shell_over_csv(self, tmp_path, monkeypatch):
        from repro.cli import main
        from repro.shell import run_shell

        csv_path = tmp_path / "cars.csv"
        assert main(["generate", "cars", "--size", "600", "--out", str(csv_path)]) == 0

        # Feed a scripted session through stdin.
        monkeypatch.setattr("sys.stdin", io.StringIO("stats\nquit\n"))
        monkeypatch.setattr(
            "repro.shell.QpiadShell.cmdloop",
            lambda self, intro=None: [self.onecmd("stats"), self.onecmd("quit")],
        )
        assert run_shell(csv_path) == 0


class TestCsvTextType:
    def test_text_attribute_round_trips(self, tmp_path):
        from repro.relational import Attribute, AttributeType, Relation, Schema
        from repro.relational.csvio import read_csv, write_csv

        schema = Schema([Attribute("note", AttributeType.TEXT)])
        relation = Relation(schema, [("hello, world",), ("line two",)])
        path = tmp_path / "notes.csv"
        write_csv(relation, path)
        loaded = read_csv(path, schema=schema)
        assert loaded == relation


class TestRewrittenQueryRepr:
    def test_reprs_are_informative(self, cars_env):
        from repro.core.rewriting import rewriting_bindings, rewritten_from_bindings

        query = SelectionQuery.equals("body_style", "Convt")
        base = cars_env.web_source().execute(query)
        knowledge = cars_env.knowledge
        rewritten = rewritten_from_bindings(
            query, rewriting_bindings(query, base, knowledge), knowledge
        )[0]
        text = repr(rewritten)
        assert "P=" in text and "Sel=" in text
