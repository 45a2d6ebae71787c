"""Multi-way joins over incomplete sources."""

import pytest

from repro.core.multijoin import MultiJoinProcessor, MultiJoinStep
from repro.errors import QpiadError
from repro.mining import KnowledgeStore
from repro.query import SelectionQuery
from repro.relational import is_null


@pytest.fixture(scope="module")
def three_way(cars_env, complaints_env):
    """Cars ⋈ Complaints ⋈ Complaints(crash) — a 3-relation chain on model."""
    return [
        MultiJoinStep(
            source=cars_env.web_source(),
            knowledge=cars_env.knowledge,
            query=SelectionQuery.equals("model", "Grand Cherokee"),
            join_attribute="model",
        ),
        MultiJoinStep(
            source=complaints_env.web_source(),
            knowledge=complaints_env.knowledge,
            query=SelectionQuery.equals("general_component", "Engine and Engine Cooling"),
            join_attribute="model",
            link_attribute="step0.model",
        ),
        MultiJoinStep(
            source=complaints_env.web_source(),
            knowledge=complaints_env.knowledge,
            query=SelectionQuery.equals("crash", "Yes"),
            join_attribute="model",
            link_attribute="step0.model",
        ),
    ]


@pytest.fixture(scope="module")
def result(three_way):
    return MultiJoinProcessor(three_way, k=5).query()


class TestValidation:
    def test_needs_two_steps(self, three_way):
        with pytest.raises(QpiadError):
            MultiJoinProcessor(three_way[:1])

    def test_later_steps_need_link_attributes(self, three_way):
        broken = [
            three_way[0],
            MultiJoinStep(
                source=three_way[1].source,
                knowledge=three_way[1].knowledge,
                query=three_way[1].query,
                join_attribute="model",
            ),
        ]
        with pytest.raises(QpiadError, match="link_attribute"):
            MultiJoinProcessor(broken)

    def test_dangling_link_attribute_rejected_at_construction(self, three_way):
        """Regression: a link attribute naming nothing used to be accepted
        and the join silently produced zero answers."""
        broken = [
            three_way[0],
            MultiJoinStep(
                source=three_way[1].source,
                knowledge=three_way[1].knowledge,
                query=three_way[1].query,
                join_attribute="model",
                link_attribute="step0.modle",  # typo'd attribute
            ),
        ]
        with pytest.raises(QpiadError, match="names nothing") as excinfo:
            MultiJoinProcessor(broken)
        # The error teaches the fix: it lists what *can* be linked.
        assert "step0.model" in str(excinfo.value)

    def test_link_attribute_may_only_reference_earlier_steps(self, three_way):
        broken = [
            three_way[0],
            MultiJoinStep(
                source=three_way[1].source,
                knowledge=three_way[1].knowledge,
                query=three_way[1].query,
                join_attribute="model",
                link_attribute="step1.model",  # self-reference: not yet joined
            ),
        ]
        with pytest.raises(QpiadError, match="names nothing"):
            MultiJoinProcessor(broken)

    @pytest.mark.parametrize(
        "options, message",
        [({"k": -1}, "k must be non-negative"), ({"alpha": -1.0}, "alpha must be")],
    )
    def test_invalid_alpha_or_k_rejected_at_construction(
        self, three_way, options, message
    ):
        """Regression: these used to surface only at query(), from inside
        the first step's executor task."""
        with pytest.raises(QpiadError, match=message):
            MultiJoinProcessor(three_way, **options)


class TestThreeWayJoin:
    def test_produces_answers(self, result):
        assert result.answers
        assert len(result.per_step_retrieved) == 3

    def test_certain_answers_are_fully_certain(self, result, cars_env, complaints_env):
        cars_model = cars_env.test.schema.index_of("model")
        complaints_model = complaints_env.test.schema.index_of("model")
        for answer in result.certain[:50]:
            car, complaint_a, complaint_b = answer.rows
            assert car[cars_model] == "Grand Cherokee"
            assert complaint_a[complaints_model] == "Grand Cherokee"
            assert complaint_b[complaints_model] == "Grand Cherokee"
            assert answer.confidence == 1.0

    def test_possible_answers_ranked_by_confidence(self, result):
        confidences = [answer.confidence for answer in result.possible]
        assert confidences == sorted(confidences, reverse=True)
        assert all(0.0 < c <= 1.0 for c in confidences)

    def test_possible_answers_involve_a_null_or_prediction(
        self, result, cars_env, complaints_env
    ):
        cars_model = cars_env.test.schema.index_of("model")
        body_index = cars_env.test.schema.index_of("body_style")
        comp_index = complaints_env.test.schema.index_of("general_component")
        complaints_model = complaints_env.test.schema.index_of("model")
        crash_index = complaints_env.test.schema.index_of("crash")
        for answer in result.possible[:50]:
            car, complaint_a, complaint_b = answer.rows
            has_null = (
                is_null(car[cars_model])
                or is_null(car[body_index])
                or is_null(complaint_a[comp_index])
                or is_null(complaint_a[complaints_model])
                or is_null(complaint_b[crash_index])
                or is_null(complaint_b[complaints_model])
                or any(is_null(v) for v in car)
                or any(is_null(v) for v in complaint_a)
                or any(is_null(v) for v in complaint_b)
            )
            assert has_null

    def test_row_concatenates_all_steps(self, result, cars_env, complaints_env):
        answer = result.answers[0]
        expected = len(cars_env.test.schema) + 2 * len(complaints_env.test.schema)
        assert len(answer.row) == expected

    def test_certain_sort_before_possible(self, result):
        kinds = [answer.certain for answer in result.answers]
        assert kinds == sorted(kinds, reverse=True)


class _CountingStore(KnowledgeStore):
    """A store that counts how often its generation is read."""

    def __init__(self, knowledge):
        super().__init__(knowledge)
        self.reads = 0

    @property
    def current(self):
        self.reads += 1
        return super().current


class TestKnowledgeSnapshot:
    def test_each_step_reads_its_store_once_per_query(self, three_way):
        """A step's retrieval and its NULL join fill use one generation:
        the store is read once per query, not once per NULL join value."""
        stores = [_CountingStore(step.knowledge) for step in three_way[:2]]
        steps = [
            MultiJoinStep(
                source=step.source,
                knowledge=store,
                query=step.query,
                join_attribute=step.join_attribute,
                link_attribute=step.link_attribute,
            )
            for step, store in zip(three_way, stores)
        ]
        processor = MultiJoinProcessor(steps, k=5)
        result = processor.query()
        model = steps[1].source.schema.index_of("model")
        assert any(is_null(answer.rows[1][model]) for answer in result.answers)
        assert [store.reads for store in stores] == [1, 1]
        processor.query()
        assert [store.reads for store in stores] == [2, 2]
