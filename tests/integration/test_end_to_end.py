"""End-to-end flows: mediator over a mined training split, budgets, bands."""

import random

import pytest

from repro.core import QpiadConfig, QpiadMediator
from repro.datasets import generate_cars, make_incomplete
from repro.mining import KnowledgeBase
from repro.query import SelectionQuery
from repro.relational import is_null
from repro.sources import AutonomousSource, SourceCapabilities, split_relation


class TestTrainingSplitPipeline:
    """The §6.2 pipeline: knowledge is mined from a 10% training split, and
    the mediator reaches the other 90% only through the web form."""

    @pytest.fixture(scope="class")
    def pipeline(self):
        cars = generate_cars(4000, seed=77)
        dataset = make_incomplete(cars, seed=78)
        train, test = split_relation(dataset.incomplete, 0.1, random.Random(79))
        source = AutonomousSource("cars.com", test)
        knowledge = KnowledgeBase(train, database_size=source.cardinality())
        return dataset, source, knowledge

    def test_the_split_learns_usable_afds(self, pipeline):
        __, __, knowledge = pipeline
        best = knowledge.best_afd("body_style")
        assert best is not None and "model" in best.determining

    def test_mediated_query_returns_ranked_possible_answers(self, pipeline):
        dataset, source, knowledge = pipeline
        mediator = QpiadMediator(source, knowledge, QpiadConfig(k=10))
        result = mediator.query(SelectionQuery.equals("body_style", "Convt"))
        index = source.schema.index_of("body_style")
        assert result.ranked
        assert all(is_null(answer.row[index]) for answer in result.ranked)

    def test_source_only_saw_legal_queries(self, pipeline):
        __, source, knowledge = pipeline
        mediator = QpiadMediator(source, knowledge, QpiadConfig(k=10))
        mediator.query(SelectionQuery.equals("body_style", "Convt"))
        assert source.statistics.rejected_queries == 0


class TestBudgetedMediation:
    def test_mediator_respects_source_budget(self):
        cars = generate_cars(1500, seed=5)
        dataset = make_incomplete(cars, seed=6)
        source = AutonomousSource(
            "limited",
            dataset.incomplete,
            SourceCapabilities.web_form(query_budget=6),
        )
        knowledge = KnowledgeBase(dataset.incomplete.take(300), database_size=1500)
        mediator = QpiadMediator(source, knowledge, QpiadConfig(k=5))
        result = mediator.query(SelectionQuery.equals("body_style", "Sedan"))
        assert result.stats.queries_issued <= 6


class TestAnswerBands:
    def test_certain_then_ranked(self, cars_env):
        from repro.query import Equals

        mediator = QpiadMediator(
            cars_env.permissive_source(), cars_env.knowledge, QpiadConfig(k=10)
        )
        query = SelectionQuery.conjunction(
            [Equals("model", "Z4"), Equals("body_style", "Convt")]
        )
        result = mediator.query(query)
        schema = cars_env.test.schema
        assert all(query.predicate.matches(row, schema) for row in result.certain)
        assert result.ranked
        for answer in result.ranked:
            nulls = sum(
                1
                for name in ("model", "body_style")
                if is_null(answer.row[schema.index_of(name)])
            )
            assert nulls == 1
        # No call can ask for the tuples with two NULLs, even where the
        # source could bind NULL: the band they filled stays empty.
        assert result.unranked == []
