"""Certain answers are never lost to the top K of a join's query pairs.

The complete×complete pair of a join costs no source call: its rows are
the two base sets, already retrieved.  So it is joined whenever its EstSel
is non-zero, whatever its F-measure rank; when K rewritten pairs outrank
it, it is joined in addition to them and ``pairs_issued`` counts it.

The pinned counts do not depend on ``PYTHONHASHSEED``: CI runs this
module under seeds 0, 1 and 2.
"""

from __future__ import annotations

from repro.core import JoinConfig, JoinProcessor
from repro.core.joins import _Side
from repro.query import JoinQuery, SelectionQuery
from repro.relational.values import is_null

JOIN = JoinQuery(
    SelectionQuery.equals("model", "Grand Cherokee"),
    SelectionQuery.equals("general_component", "Engine and Engine Cooling"),
    "model",
)

#: A rewritten right side whose EstSel dwarfs the right base set: every
#: pair with it outranks the complete pair.
DOMINANT = _Side(
    query=SelectionQuery.equals("model", "Grand Cherokee"),
    is_rewritten=True,
    precision=0.9,
    selectivity=10_000.0,
    join_distribution={"Grand Cherokee": 1.0},
    target_attribute="general_component",
)


class _DominantRightSide(JoinProcessor):
    """A join processor whose right side offers one hand-made rewritten
    query in place of the mined ones."""

    def _build_sides(self, complete, base_set, planner, knowledge, join_attribute):
        sides = super()._build_sides(
            complete, base_set, planner, knowledge, join_attribute
        )
        return [sides[0], DOMINANT] if planner is self._right_planner else sides


def _base_pairs(cars_env, complaints_env):
    """The certain answers from first principles: base rows that share a
    stored, non-NULL join value."""
    left = cars_env.web_source().execute(JOIN.left)
    right = complaints_env.web_source().execute(JOIN.right)
    left_key = left.schema.index_of(JOIN.left_join_attribute)
    right_key = right.schema.index_of(JOIN.right_join_attribute)
    return {
        (left_row, right_row)
        for left_row in left
        for right_row in right
        if not is_null(left_row[left_key]) and left_row[left_key] == right_row[right_key]
    }


class TestCompletePairOutrankedAtK1:
    def _result(self, cars_env, complaints_env):
        processor = _DominantRightSide(
            cars_env.web_source(),
            complaints_env.web_source(),
            cars_env.knowledge,
            complaints_env.knowledge,
            JoinConfig(alpha=0.5, k_pairs=1),
        )
        return processor.query(JOIN)

    def test_every_certain_answer_is_returned(self, cars_env, complaints_env):
        expected = _base_pairs(cars_env, complaints_env)
        assert len(expected) > 100
        result = self._result(cars_env, complaints_env)
        certain = {(answer.left_row, answer.right_row) for answer in result.certain}
        assert certain == expected
        assert all(answer.confidence == 1.0 for answer in result.certain)

    def test_pairs_issued_counts_the_complete_pair(self, cars_env, complaints_env):
        result = self._result(cars_env, complaints_env)
        # K = 1 selects the dominant pair; the complete pair joins besides.
        assert result.pairs_issued == 2
        assert result.base_queries_issued == 2
        assert result.component_queries_issued == 1
