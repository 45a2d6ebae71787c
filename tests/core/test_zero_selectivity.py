"""K is a ceiling, not a quota: nothing whose EstSel is zero is issued.

EstSel = SmplSel · SmplRatio · PerInc (§5.4) is zero when no sample row
matches a rewritten query, or when the sample holds no incomplete row at
all.  The selection planner drops such a candidate after the top-K and
counts it in ``SelectionPlan.skipped_zero_selectivity``; the join
processor drops a selected query pair whose EstSel is zero before it plans
the pair's components.

The pinned counts and digests do not depend on ``PYTHONHASHSEED``: CI runs
this module under seeds 0, 1 and 2.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core import JoinConfig, JoinProcessor, QpiadConfig, QpiadMediator
from repro.core.joins import _Side
from repro.datasets import generate_cars, generate_complaints
from repro.datasets.scale import scaled_incomplete
from repro.evaluation import build_environment
from repro.evaluation.workloads import join_workload
from repro.mining import KnowledgeBase
from repro.planner import PlannerConfig, QueryPlanner
from repro.query import JoinQuery, SelectionQuery
from repro.sources import AutonomousSource, SourceCapabilities, SourceDecorator
from repro.sources.sampler import split_relation
from repro.telemetry import Telemetry


class LoggingSource(SourceDecorator):
    """Records every selection that reaches the wrapped source."""

    def __init__(self, inner):
        super().__init__(inner)
        self.log: list[SelectionQuery] = []

    def execute(self, query):
        self.log.append(query)
        return super().execute(query)


def _complete_knowledge(env) -> KnowledgeBase:
    """Knowledge mined from a sample with no NULL, so PerInc(R) is 0."""
    sample = env.dataset.complete.take(len(env.train))
    assert sample.incomplete_fraction() == 0.0
    return KnowledgeBase(sample, database_size=len(env.test))


class TestSelectionGate:
    QUERY = SelectionQuery.equals("model", "Corvette")

    def test_highest_precision_candidate_with_zero_estimate_is_not_a_step(
        self, cars_env
    ):
        """At α = 0 the top-3 is the three most precise candidates.  The
        most precise binds determining values no sample row has, so its
        EstSel is 0: the plan issues the other two and tallies it."""
        source = cars_env.web_source()
        base_set = source.execute(self.QUERY)
        planner = QueryPlanner(cars_env.knowledge, PlannerConfig(alpha=0.0, k=3))
        candidates = planner.rewrite_candidates(self.QUERY, base_set)
        best = max(candidates, key=lambda candidate: candidate.estimated_precision)
        assert best.estimated_selectivity == 0.0
        assert cars_env.knowledge.selectivity.sample_selectivity(best.query) == 0

        plan = planner.plan_selection(self.QUERY, base_set, source=source)
        assert best.query not in [step.query for step in plan.steps]
        assert len(plan.steps) == 2 < planner.config.k
        assert plan.skipped_zero_selectivity == 1
        assert plan.skipped == 1

    def test_skipped_rewritings_land_in_the_stats_and_the_counters(self, cars_env):
        source = cars_env.web_source()
        telemetry = Telemetry()
        mediator = QpiadMediator(
            source, cars_env.knowledge, QpiadConfig(k=3), telemetry=telemetry
        )
        result = mediator.query(self.QUERY)
        assert result.stats.rewritten_skipped == 1
        assert telemetry.metrics.value("mediator.rewritten_zero_selectivity") == 1
        assert result.stats.queries_issued == 3  # the base query and two steps
        assert source.statistics.queries_answered == 3


class TestSampleWithoutNulls:
    """PerInc(R) = 0 makes every EstSel 0: the estimate expects no
    incomplete tuple anywhere, so only the base queries are issued."""

    def test_selection_issues_only_the_base_query(self, cars_env):
        source = cars_env.web_source()
        mediator = QpiadMediator(source, _complete_knowledge(cars_env))
        result = mediator.query(SelectionQuery.equals("body_style", "Convt"))
        plan = mediator.last_plan
        assert plan is not None and plan.generated > mediator.config.k
        assert plan.steps == ()
        assert plan.skipped == plan.skipped_zero_selectivity == mediator.config.k
        assert result.stats.queries_issued == 1
        assert source.statistics.queries_answered == 1
        assert len(result.certain) > 0 and result.ranked == []

    def test_join_issues_only_the_base_queries(self, cars_env, complaints_env):
        left, right = cars_env.web_source(), complaints_env.web_source()
        processor = JoinProcessor(
            left,
            right,
            _complete_knowledge(cars_env),
            _complete_knowledge(complaints_env),
            JoinConfig(alpha=0.5, k_pairs=10),
        )
        result = processor.query(
            JoinQuery(
                SelectionQuery.equals("model", "Grand Cherokee"),
                SelectionQuery.equals(
                    "general_component", "Engine and Engine Cooling"
                ),
                "model",
            )
        )
        assert result.pairs_considered > 1
        assert result.pairs_issued == 1  # the two complete queries
        assert result.component_queries_issued == 0
        assert left.statistics.queries_answered == right.statistics.queries_answered == 1
        assert result.certain


class _ExtraLeftSide(JoinProcessor):
    """A join processor whose left side offers one hand-made rewritten
    query in place of the mined ones."""

    def __init__(self, *args, extra: _Side, **kwargs):
        super().__init__(*args, **kwargs)
        self._extra = extra

    def _build_sides(self, complete, base_set, planner, knowledge, join_attribute):
        complete, *__ = super()._build_sides(
            complete, base_set, planner, knowledge, join_attribute
        )
        return [complete, self._extra] if planner is self._left_planner else [complete]


class TestJoinPairGate:
    JOIN = JoinQuery(
        SelectionQuery.equals("model", "Grand Cherokee"),
        SelectionQuery.equals("general_component", "Engine and Engine Cooling"),
        "model",
    )

    @pytest.mark.parametrize(
        "selectivity,distribution",
        [
            (0.0, {"Grand Cherokee": 1.0}),  # no sample support
            (50.0, {"no such model": 1.0}),  # join values that never meet
        ],
        ids=["no-sample-support", "disjoint-join-values"],
    )
    def test_selected_zero_pair_issues_no_component(
        self, cars_env, complaints_env, selectivity, distribution
    ):
        """K covers both pairs, so the ranker selects the zero pair too;
        the gate drops it and its component never reaches the source."""
        extra = _Side(
            query=SelectionQuery.equals("make", "Jeep"),
            is_rewritten=True,
            precision=0.9,
            selectivity=selectivity,
            join_distribution=distribution,
            target_attribute="model",
        )
        left = LoggingSource(cars_env.web_source())
        right = LoggingSource(complaints_env.web_source())
        processor = _ExtraLeftSide(
            left,
            right,
            cars_env.knowledge,
            complaints_env.knowledge,
            JoinConfig(alpha=0.5, k_pairs=10),
            extra=extra,
        )
        result = processor.query(self.JOIN)
        assert result.pairs_considered == 2
        assert result.pairs_issued == 1
        assert result.component_queries_issued == 0
        assert left.log == [self.JOIN.left]
        assert right.log == [self.JOIN.right]
        assert result.certain


class TestCensusCycle:
    """Census ×10, a 10% sample (split seed 42), every ``education`` and
    ``workclass`` value at K = 10.  Without the gate the cycle issued 124
    calls, 19 of them rewritten queries no sample row matches."""

    CALLS = 105
    SKIPPED = 19

    def test_calls_issued_and_every_rewriting_has_sample_support(self):
        incomplete = scaled_incomplete("census", 10).incomplete
        sample, hidden = split_relation(incomplete, 0.10, random.Random(42))
        knowledge = KnowledgeBase(sample, database_size=len(hidden))
        source = LoggingSource(
            AutonomousSource("census", hidden, SourceCapabilities.web_form())
        )
        mediator = QpiadMediator(
            source, knowledge, QpiadConfig(k=10, max_concurrency=1)
        )
        calls = skipped = 0
        for attribute in ("education", "workclass"):
            for value in sorted(hidden.distinct_values(attribute), key=repr):
                query = SelectionQuery.equals(attribute, value)
                issued = len(source.log)
                result = mediator.query(query)
                calls += result.stats.queries_issued
                assert mediator.last_plan is not None
                skipped += mediator.last_plan.skipped_zero_selectivity
                assert source.log[issued] == query
                for rewritten in source.log[issued + 1:]:
                    assert knowledge.selectivity.sample_selectivity(rewritten) > 0
        assert calls == len(source.log) == self.CALLS
        assert skipped == self.SKIPPED


class TestJoinCycle:
    """Cars ⋈ Complaints on ``model``, 1,000 rows a side, the 29-join
    cycle of ``join_workload`` with the seeds of the join benchmark.
    Without the gate it issued 162 component calls over 290 pairs; the
    43 zero-EstSel pairs it selected found no answer, so the answers are
    unchanged."""

    COMPONENT_CALLS = 151
    PAIRS_ISSUED = 247
    ANSWERS = "70a96e48320fc8b89be83f9e525ea576f551bf0dede5db29206b26fdf2791464"

    def test_fewer_component_calls_and_the_same_answers(self):
        left = build_environment(generate_cars(1000, seed=7), seed=42, name="cars")
        right = build_environment(
            generate_complaints(1000, seed=11), seed=43, name="complaints"
        )
        cycle = join_workload(
            left, right, "model", "model", "general_component", 29, seed=7
        )
        processor = JoinProcessor(
            left.web_source(),
            right.web_source(),
            KnowledgeBase(left.train, database_size=len(left.test)),
            KnowledgeBase(right.train, database_size=len(right.test)),
            JoinConfig(max_concurrency=1),
        )
        components = pairs = 0
        observed = []
        for join in cycle:
            result = processor.query(join)
            components += result.component_queries_issued
            pairs += result.pairs_issued
            observed.append(
                [
                    (a.left_row, a.right_row, a.confidence, a.certain)
                    for a in result.answers
                ]
            )
        assert len(cycle) == 29
        assert components == self.COMPONENT_CALLS
        assert pairs == self.PAIRS_ISSUED
        digest = hashlib.sha256(repr(observed).encode("utf-8")).hexdigest()
        assert digest == self.ANSWERS
