"""Golden digests of mined knowledge and query answers.

Each case renders everything it observes — KB fingerprints, certain rows,
ranked ``(row, confidence)`` pairs, answer counts — with ``repr`` (exact
for floats, and free of set or dict iteration order) and compares the
SHA-256 of that rendering with a digest recorded from a known-good build.
A change to mining, NBC scoring or certain/possible extraction that moves
any answer, its order, a confidence bit or an AFD shows up here.

The digests must not depend on ``PYTHONHASHSEED``: CI runs this module
under seeds 0, 1 and 2.  To re-record after an *intended* change,
print ``_digest(...)`` of the failing case and paste it in, saying in the
commit message what moved and why.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from repro.core import QpiadConfig, QpiadMediator
from repro.datasets.scale import scaled_incomplete
from repro.mining import KnowledgeBase, KnowledgeRefresher, KnowledgeStore
from repro.query import (
    And,
    Between,
    Comparison,
    Equals,
    NotEquals,
    OneOf,
    SelectionQuery,
    certain_answers,
    certain_count,
    possible_answers,
)
from repro.relational import NULL, Relation, Schema
from repro.sources import AutonomousSource, SourceCapabilities
from repro.sources.sampler import split_relation


def _digest(observed: object) -> str:
    return hashlib.sha256(repr(observed).encode("utf-8")).hexdigest()


def _fresh(relation: Relation) -> Relation:
    """A copy with no memoized columnar image, as a freshly loaded relation."""
    return Relation(relation.schema, relation.rows)


# ----------------------------------------------------------------------
# Mined knowledge
# ----------------------------------------------------------------------

KB_GOLDENS = {
    ("cars", 1): "b297bd42a05cfb966503cb2135f0604fa26e8150fd30b4b222696b5d2feb6503",
    ("census", 1): "4cbf45bc17b3b60833ea086963fac729b9784bd401ff274704d6186bbcb640a8",
    ("cars", 10): "d4574316c59f71dec6bb3c8fe91f1c2948b566cedc3959c8b84047cdf7892c45",
    ("census", 10): "e649d6d66379be93170f12e2037cc9e7e04bfea96aa765476533d0f28d4d77d3",
}


@pytest.mark.parametrize("dataset,factor", sorted(KB_GOLDENS), ids=str)
def test_knowledge_fingerprint(dataset, factor):
    sample = scaled_incomplete(dataset, factor).incomplete
    knowledge = KnowledgeBase(_fresh(sample), database_size=10 * len(sample))
    assert _digest(knowledge.fingerprint()) == KB_GOLDENS[(dataset, factor)]


FOLD_GOLDEN = "0664e04dbc6f23d8d379d76b3224efb62c2d581d77c7958d0d2112f7c58035bd"


def test_fingerprint_after_one_fold():
    incomplete = scaled_incomplete("cars", 1).incomplete
    schema, rows = incomplete.schema, incomplete.rows
    base = Relation(schema, rows[:300])
    # A refresh re-mines the union, so its fingerprint is a fresh mine's.
    batch = Relation(schema, rows[50:150])
    store = KnowledgeStore(KnowledgeBase(base, database_size=4000))
    refresher = KnowledgeRefresher(store)
    result = refresher.refresh(batch)
    assert result.mode == "full"
    assert _digest((result.fingerprint, result.epoch)) == FOLD_GOLDEN


# ----------------------------------------------------------------------
# Mediated answers
# ----------------------------------------------------------------------

MEDIATED_QUERIES = {
    "cars": (
        SelectionQuery(Equals("body_style", "Sedan")),
        SelectionQuery(Equals("model", "Accord")),
        SelectionQuery(Between("price", 8000, 16000)),
        SelectionQuery(Comparison("year", ">=", 2004)),
        SelectionQuery(OneOf("make", ("Honda", "BMW", "Toyota"))),
        SelectionQuery(And([Equals("make", "Honda"), Between("mileage", 0, 60000)])),
    ),
    "census": (
        SelectionQuery(Equals("occupation", "Sales")),
        SelectionQuery(Equals("relationship", "Husband")),
        SelectionQuery(Between("age", 30, 45)),
        SelectionQuery(Comparison("hours_per_week", ">", 40)),
        SelectionQuery(OneOf("education", ("Bachelors", "Masters", "Doctorate"))),
        SelectionQuery(And([Equals("sex", "Female"), Comparison("age", "<", 35)])),
    ),
}

MEDIATED_GOLDENS = {
    "cars": "40d9f189d9fceed19a053bb6a513346af45c8f1076989c97f47d5e5a29b40cb0",
    "census": "a503a6d59d5366c904918ef827b9bf12c6ccbf54673bfd5ac6b6fe05ebbf84c5",
}


@pytest.mark.parametrize("dataset", sorted(MEDIATED_GOLDENS))
def test_mediated_answers(dataset):
    incomplete = scaled_incomplete(dataset, 10).incomplete
    sample, hidden = split_relation(incomplete, 0.1, random.Random(5))
    knowledge = KnowledgeBase(_fresh(sample), database_size=len(hidden))
    source = AutonomousSource(dataset, _fresh(hidden), SourceCapabilities.web_form())
    mediator = QpiadMediator(
        source, knowledge, QpiadConfig(k=10, max_concurrency=1)
    )
    observed = []
    for query in MEDIATED_QUERIES[dataset]:
        result = mediator.query(query)
        observed.append(
            (
                result.certain.rows,
                [(answer.row, answer.confidence) for answer in result.ranked],
            )
        )
    assert _digest(observed) == MEDIATED_GOLDENS[dataset]


# ----------------------------------------------------------------------
# Answer extraction on constants outside the vectorized comfort zone
# ----------------------------------------------------------------------

BIG = 2**53 + 1
NAN = float("nan")


def _exotic() -> Relation:
    """Mixed int/float/bool/str cells, NULLs, NaN, ±0.0 and a huge int."""
    return Relation(
        Schema.of("x", "y", "z"),
        [
            (1, "a", 3.5),
            (1.0, "b", NULL),
            (True, "a", 2),
            (2, NULL, 7),
            (2.5, "a", NULL),
            ("word", "c", 1),
            (NULL, "a", 4),
            (BIG, "b", 2**53),
            (2**53, "a", NAN),
            (NAN, NULL, 0.0),
            (-0.0, "a", -0.0),
            (0, "b", True),
            (NULL, NULL, NULL),
            ("5", "a", 5),
        ],
    )


EXOTIC_QUERIES = (
    SelectionQuery(Between("x", 0, BIG)),
    SelectionQuery(Between("z", -BIG, 2**53)),
    SelectionQuery(Equals("x", "5")),
    SelectionQuery(Comparison("z", ">", "abc")),
    SelectionQuery(Between("x", "a", "z")),
    SelectionQuery(Equals("x", NAN)),
    SelectionQuery(NotEquals("z", NAN)),
    SelectionQuery(Comparison("z", "<=", NAN)),
    SelectionQuery(Comparison("x", "<", Fraction(5, 2))),
    SelectionQuery(Equals("x", [1])),
    SelectionQuery(Equals("x", 1)),
    SelectionQuery(Equals("x", 0.0)),
    SelectionQuery(OneOf("x", (1, 2.5, "word", BIG))),
    SelectionQuery(And([Between("x", 0, BIG), Equals("y", "a")])),
    SelectionQuery(And([Comparison("z", ">=", Fraction(1, 3)), Equals("y", "b")])),
    SelectionQuery(And([Equals("x", NAN), NotEquals("y", "c"), Comparison("z", ">", 0)])),
)

EXOTIC_GOLDEN = "f0a3aaf6418eb0c757d51b4d220e32c4ec77ba57dcad663c9466ce596514053c"


def test_exotic_constants():
    observed = []
    for query in EXOTIC_QUERIES:
        relation = _exotic()
        observed.append(
            (
                certain_answers(query, relation).rows,
                possible_answers(query, relation, max_nulls=1).rows,
                certain_count(query, relation),
            )
        )
    assert _digest(observed) == EXOTIC_GOLDEN
