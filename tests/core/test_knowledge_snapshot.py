"""One knowledge snapshot per retrieval.

A refresher may install a new generation while a retrieval's base call is
on the wire.  The retrieval must still plan, rewrite and score its join
pairs against the generation it started with, so it returns exactly what
it returns when nothing is installed.  Each test wraps the source so that
its first call installs a generation mined from another sample, then
compares the retrieval with one over the old generation alone.
"""

from __future__ import annotations

import pytest

from repro.core import JoinConfig, JoinProcessor, QpiadConfig, QpiadMediator
from repro.mining import KnowledgeBase, KnowledgeStore
from repro.query import And, Equals, JoinQuery, SelectionQuery
from repro.sources import SourceDecorator


class InstallsOnFirstCall(SourceDecorator):
    """Installs *generation* in *store* while its first call is on the wire."""

    def __init__(self, inner, store: KnowledgeStore, generation: KnowledgeBase):
        super().__init__(inner)
        self._store = store
        self._pending: "KnowledgeBase | None" = generation

    def execute(self, query):
        if self._pending is not None:
            self._store.install(self._pending)
            self._pending = None
        return super().execute(query)


def _other_generation(env) -> KnowledgeBase:
    """A generation mined from a different sample of the same source."""
    return KnowledgeBase(env.test.take(400), database_size=len(env.test))


def _selection(result):
    return (
        result.certain.rows,
        [(answer.row, answer.confidence) for answer in result.ranked],
        result.unranked,
        result.stats.queries_issued,
    )


class TestSelection:
    QUERY = SelectionQuery(And([Equals("make", "BMW"), Equals("body_style", "Convt")]))
    CONFIG = QpiadConfig(k=10, max_concurrency=1)

    def test_query_plans_and_ranks_against_its_first_generation(self, cars_env):
        reference = QpiadMediator(
            cars_env.web_source(), cars_env.knowledge, self.CONFIG
        ).query(self.QUERY)

        store = KnowledgeStore(cars_env.knowledge)
        other = _other_generation(cars_env)
        mediator = QpiadMediator(
            InstallsOnFirstCall(cars_env.web_source(), store, other), store, self.CONFIG
        )
        result = mediator.query(self.QUERY)
        assert store.current is other
        assert _selection(result) == _selection(reference)

    def test_streamed_answers_plan_against_their_first_generation(self, cars_env):
        query = SelectionQuery.equals("body_style", "Convt")
        reference = list(
            QpiadMediator(
                cars_env.web_source(), cars_env.knowledge, self.CONFIG
            ).iter_possible(query)
        )
        assert reference

        store = KnowledgeStore(cars_env.knowledge)
        other = _other_generation(cars_env)
        mediator = QpiadMediator(
            InstallsOnFirstCall(cars_env.web_source(), store, other),
            store,
            self.CONFIG,
        )
        streamed = list(mediator.iter_possible(query))
        assert store.current is other
        assert [(a.row, a.confidence, a.retrieved_by) for a in streamed] == [
            (a.row, a.confidence, a.retrieved_by) for a in reference
        ]


class TestJoin:
    JOIN = JoinQuery(
        SelectionQuery.equals("body_style", "Convt"),
        SelectionQuery.equals("crash", "Yes"),
        "model",
    )

    @staticmethod
    def _rendered(result):
        return (
            [
                (a.left_row, a.right_row, a.join_value, a.confidence, a.certain)
                for a in result.answers
            ],
            result.pairs_considered,
            result.pairs_issued,
            result.component_queries_issued,
        )

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_join_rewrites_against_its_first_generation(
        self, cars_env, complaints_env, side
    ):
        """A generation installed during a side's base call reaches neither
        that side's rewriting nor its join distributions or NULL fill."""
        config = JoinConfig(alpha=0.5, k_pairs=10, max_concurrency=1)
        reference = JoinProcessor(
            cars_env.web_source(),
            complaints_env.web_source(),
            cars_env.knowledge,
            complaints_env.knowledge,
            config,
        ).query(self.JOIN)

        envs = {"left": cars_env, "right": complaints_env}
        stores = {name: KnowledgeStore(env.knowledge) for name, env in envs.items()}
        sources = {name: env.web_source() for name, env in envs.items()}
        other = _other_generation(envs[side])
        sources[side] = InstallsOnFirstCall(sources[side], stores[side], other)
        result = JoinProcessor(
            sources["left"],
            sources["right"],
            stores["left"],
            stores["right"],
            config,
        ).query(self.JOIN)
        assert stores[side].current is other
        assert self._rendered(result) == self._rendered(reference)
