"""The §4.5 pair-scoring JoinProcessor against first principles.

On the *certain* side the join must return exactly the pairs of base rows
that share a stored, non-NULL join value (``test_certain_pair.py``'s
oracle); its possible side must be sound (wherever both join values are
stored, they match).
"""

import pytest

from repro.core import JoinConfig, JoinProcessor
from repro.relational import is_null
from tests.core.test_certain_pair import JOIN, _base_pairs


@pytest.fixture(scope="module")
def pairwise(cars_env, complaints_env):
    return JoinProcessor(
        cars_env.web_source(),
        complaints_env.web_source(),
        cars_env.knowledge,
        complaints_env.knowledge,
        JoinConfig(alpha=0.5, k_pairs=10),
    ).query(JOIN)


class TestCertainAgreement:
    def test_same_certain_joined_pairs(self, pairwise, cars_env, complaints_env):
        expected = _base_pairs(cars_env, complaints_env)
        assert expected
        assert {(a.left_row, a.right_row) for a in pairwise.certain} == expected


class TestPossibleSoundness:
    def test_pairwise_possible_rows_join_consistently(
        self, pairwise, cars_env, complaints_env
    ):
        assert pairwise.possible
        left_index = cars_env.test.schema.index_of("model")
        right_index = complaints_env.test.schema.index_of("model")
        for answer in pairwise.possible:
            lv = answer.left_row[left_index]
            rv = answer.right_row[right_index]
            if not is_null(lv) and not is_null(rv):
                assert lv == rv
