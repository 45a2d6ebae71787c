"""Unit tests of the join's streaming operator.

The contracts under test: the operator emits each matching (left, right)
combination exactly once, the moment its *second* half arrives, whatever
the interleaving; each inlet's projection decides what is keyed and
combined, and drops an item by returning ``None``; and a push does its
work only as the caller reads it.
"""

import itertools

from repro.engine import OperatorTree


def _keep(item):
    return item


def _pair(left, right):
    return left, right


def _tree(match=lambda left, right: True, left=_keep, right=_keep, combine=_pair):
    return OperatorTree(left, right, key=lambda item: item[0], combine=combine, match=match)


class TestOperatorTree:
    def test_emits_when_second_half_arrives(self):
        tree = _tree()
        assert list(tree.push("left", ("k", "l1"))) == []
        assert list(tree.push("right", ("k", "r1"))) == [(("k", "l1"), ("k", "r1"))]

    def test_emits_from_either_side(self):
        tree = _tree()
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
            tree = _tree()
            emitted = []
            for inlet, item in permutation:
                emitted.extend(tree.push(inlet, item))
            assert len(emitted) == len(expected)
            assert set(emitted) == expected

    def test_match_predicate_filters_pairs(self):
        tree = _tree(match=lambda left, right: right[1] != "r0")
        list(tree.push("left", ("k", "l0")))
        assert list(tree.push("right", ("k", "r0"))) == []
        assert list(tree.push("right", ("k", "r1"))) == [(("k", "l0"), ("k", "r1"))]

    def test_transforms_each_item(self):
        tree = _tree(
            left=lambda item: (item[0], item[1].upper()),
            right=lambda item: (item[0], item[1] * 2),
        )
        list(tree.push("left", ("k", "l")))
        # combine sees the projected items, not the pushed ones.
        assert list(tree.push("right", ("k", "r"))) == [(("k", "L"), ("k", "rr"))]

    def test_projection_output_is_the_key(self):
        # The left side keys on the last digit, the right on the first.
        tree = _tree(
            left=lambda n: (n % 10, f"l{n}"), right=lambda n: (n // 10, f"r{n}")
        )
        assert list(tree.push("left", 23)) == []
        assert list(tree.push("right", 41)) == []
        assert list(tree.push("right", 35)) == [((3, "l23"), (3, "r35"))]

    def test_none_drops_the_item(self):
        tree = _tree(left=lambda item: None if item[1] == "drop" else item)
        assert list(tree.push("left", ("k", "drop"))) == []
        # The dropped item was never stored, so nothing can match it.
        assert list(tree.push("right", ("k", "r"))) == []
        assert list(tree.push("left", ("k", "l"))) == [(("k", "l"), ("k", "r"))]

    def test_push_is_lazy(self):
        projected, combined = [], []

        def project(item):
            projected.append(item)
            return item

        def combine(left, right):
            combined.append((left, right))
            return left, right

        tree = _tree(left=project, right=project, combine=combine)
        list(tree.push("left", ("k", "l0")))
        list(tree.push("left", ("k", "l1")))
        pushed = tree.push("right", ("k", "r0"))  # completes two pairs
        assert next(pushed) == (("k", "l0"), ("k", "r0"))
        assert len(combined) == 1
        # A push that is never read projects nothing.
        tree.push("left", ("k", "l2"))
        assert projected == [("k", "l0"), ("k", "l1"), ("k", "r0")]
        assert list(pushed) == [(("k", "l1"), ("k", "r0"))]
        assert len(combined) == 2
