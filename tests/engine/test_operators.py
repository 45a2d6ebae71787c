"""Unit tests of the non-blocking operator layer.

The contracts under test: a symmetric hash join emits each matching
(left, right) combination exactly once, the moment its *second* half
arrives, whatever the interleaving; project never buffers; the tree
validates its wiring up front and cascades emissions to the root.
"""

import itertools

import pytest

from repro.engine import (
    Inlet,
    OperatorNode,
    OperatorTree,
    StreamingProject,
    SymmetricHashJoin,
)
from repro.errors import QpiadError


def _join(match=None):
    return SymmetricHashJoin(
        left_key=lambda item: item[0],
        right_key=lambda item: item[0],
        combine=lambda left, right: (left, right),
        match=match,
    )


def _join_tree(match=None):
    return OperatorTree(
        OperatorNode(_join(match), [Inlet("left"), Inlet("right")], "join")
    )


class TestSymmetricHashJoin:
    def test_emits_when_second_half_arrives(self):
        tree = _join_tree()
        assert list(tree.push("left", ("k", "l1"))) == []
        assert list(tree.push("right", ("k", "r1"))) == [(("k", "l1"), ("k", "r1"))]

    def test_emits_from_either_side(self):
        tree = _join_tree()
        assert list(tree.push("right", ("k", "r1"))) == []
        # The left arrival completes the match: output is still (left, right).
        assert list(tree.push("left", ("k", "l1"))) == [(("k", "l1"), ("k", "r1"))]

    def test_every_combination_exactly_once_any_interleaving(self):
        lefts = [("a", f"l{i}") for i in range(3)] + [("b", "l3")]
        rights = [("a", f"r{i}") for i in range(2)] + [("c", "r2")]
        expected = {
            (left, right)
            for left in lefts
            for right in rights
            if left[0] == right[0]
        }
        arrivals = [("left", item) for item in lefts] + [
            ("right", item) for item in rights
        ]
        for permutation in itertools.permutations(arrivals):
            tree = _join_tree()
            emitted = []
            for inlet, item in permutation:
                emitted.extend(tree.push(inlet, item))
            assert len(emitted) == len(expected)
            assert set(emitted) == expected

    def test_none_keys_are_dropped(self):
        tree = _join_tree()
        assert list(tree.push("left", (None, "l1"))) == []
        assert list(tree.push("right", (None, "r1"))) == []

    def test_match_predicate_filters_pairs(self):
        tree = _join_tree(match=lambda left, right: right[1] != "r0")
        list(tree.push("left", ("k", "l0")))
        assert list(tree.push("right", ("k", "r0"))) == []
        assert list(tree.push("right", ("k", "r1"))) == [(("k", "l0"), ("k", "r1"))]


class TestStreamingProject:
    def test_transforms_each_item(self):
        tree = OperatorTree(
            OperatorNode(StreamingProject(lambda x: x * 2), [Inlet("in")], "proj")
        )
        assert list(tree.push("in", 3)) == [6]

    def test_none_drops_the_item(self):
        tree = OperatorTree(
            OperatorNode(
                StreamingProject(lambda x: x if x % 2 else None), [Inlet("in")], "proj"
            )
        )
        assert list(tree.push("in", 2)) == []
        assert list(tree.push("in", 3)) == [3]


class TestOperatorTree:
    def test_cascades_through_composed_operators(self):
        join = OperatorNode(_join(), [Inlet("left"), Inlet("right")], "join")
        project = OperatorNode(
            StreamingProject(lambda pair: pair[0][1] + pair[1][1]), [join], "proj"
        )
        tree = OperatorTree(project)
        list(tree.push("left", ("k", "l")))
        assert list(tree.push("right", ("k", "r"))) == ["lr"]

    def test_arity_mismatch_rejected(self):
        with pytest.raises(QpiadError, match="arity"):
            OperatorNode(_join(), [Inlet("only")], "join")

    def test_duplicate_inlet_names_rejected(self):
        with pytest.raises(QpiadError, match="duplicate inlet"):
            OperatorTree(
                OperatorNode(_join(), [Inlet("x"), Inlet("x")], "join")
            )

    def test_node_reuse_rejected(self):
        shared = OperatorNode(StreamingProject(lambda x: x), [Inlet("a")], "shared")
        with pytest.raises(QpiadError, match="tree"):
            OperatorTree(OperatorNode(_join(), [shared, shared], "join"))

    def test_unknown_inlet_rejected(self):
        tree = _join_tree()
        with pytest.raises(QpiadError, match="unknown inlet"):
            list(tree.push("middle", ("k", "x")))
