"""TANE and NBC statistics against first-principles ``Counter`` references.

The mining kernels count over dictionary codes; the references below count
the decoded values row by row with ``collections.Counter``.  Mined AFD and
AKey measurements and NBC count tables must equal the references exactly,
float bits and first-seen insertion order included.
"""

from collections import Counter

import pytest

from repro.datasets import generate_cars, make_incomplete
from repro.errors import SchemaError
from repro.mining.nbc import NaiveBayesClassifier
from repro.mining.tane import TaneConfig, mine_dependencies
from repro.relational import Relation, Schema
from repro.relational.values import NULL, is_null


def _groups(relation, attributes, dependent=None):
    """Counter of *dependent* values (or of rows) per non-NULL X-value tuple."""
    positions = relation.schema.indices_of(attributes)
    target = None if dependent is None else relation.schema.index_of(dependent)
    groups: dict = {}
    for row in relation:
        key = tuple(row[position] for position in positions)
        label = None if target is None else row[target]
        if not any(map(is_null, key + (label,))):
            groups.setdefault(key, Counter())[label] += 1
    return groups


def _reference_g3_stats(relation, determining, dependent):
    """``(support, kept)``: measured rows, rows kept by per-class majorities."""
    groups = _groups(relation, determining, dependent).values()
    return sum(sum(c.values()) for c in groups), sum(max(c.values()) for c in groups)


def _reference_nbc_counts(relation, cls, features):
    """Class counter, per-feature per-class counters, smoothed domain sizes."""
    classes = Counter(value for value in relation.column(cls) if not is_null(value))
    joint = {f: {k[0]: c for k, c in _groups(relation, (cls,), f).items()} for f in features}
    domains = {f: max(1, len({v for c in joint[f].values() for v in c})) for f in features}
    return classes, joint, domains


def _sample() -> Relation:
    return make_incomplete(generate_cars(300, seed=7), seed=97).incomplete


def _assert_measurements_match_reference(sample, mined):
    assert mined.afds, "expected the sample to yield AFDs"
    for afd in mined.afds:
        support, kept = _reference_g3_stats(sample, afd.determining, afd.dependent)
        assert afd.support == support, afd
        assert afd.confidence == 1.0 - (support - kept) / support, afd
    for key in mined.akeys:
        groups = _groups(sample, key.attributes)
        covered = sum(sum(c.values()) for c in groups.values())
        assert key.support == covered, key
        assert key.confidence == 1.0 - (covered - len(groups)) / covered, key


class TestTaneParity:
    def test_afds_and_akeys_identical(self):
        sample = _sample()
        _assert_measurements_match_reference(sample, mine_dependencies(sample))

    def test_confidences_are_float_bit_identical(self):
        sample = _sample()
        for afd in mine_dependencies(sample).afds:
            support, kept = _reference_g3_stats(sample, afd.determining, afd.dependent)
            expected = 1.0 - (support - kept) / support
            assert afd.confidence.hex() == expected.hex(), afd

    def test_parity_survives_restricted_attribute_sets(self):
        sample = _sample()
        config = TaneConfig(attributes=("make", "model", "body_style"))
        mined = mine_dependencies(sample, config)
        for afd in mined.afds:
            assert set(afd.determining) | {afd.dependent} <= set(config.attributes)
        _assert_measurements_match_reference(sample, mined)

    def test_unhashable_cell_raises_schema_error(self):
        # Cells must be hashable to be dictionary-encoded, even in columns
        # the miner was not asked to look at.
        relation = Relation(
            Schema.of("make", "tags", "body_style"),
            [
                ("Honda", ["a"], "Sedan"),
                ("Honda", ["b"], "Sedan"),
                ("BMW", ["a"], "Convt"),
                ("BMW", NULL, "Convt"),
            ],
        )
        config = TaneConfig(attributes=("make", "body_style"))
        with pytest.raises(SchemaError, match="'tags'"):
            mine_dependencies(relation, config)


def _assert_counts_match_reference(nbc, relation):
    class_counts, joint, domains = _reference_nbc_counts(
        relation, nbc.class_attribute, nbc.features
    )
    # Class order is first-seen order: ``classes`` breaks ties by it.
    assert list(nbc._class_counts.items()) == list(class_counts.items())
    assert nbc._joint_counts == joint
    assert nbc._domain_sizes == domains


class TestNbcParity:
    def test_counts_and_domains_identical_including_order(self):
        sample = _sample()
        nbc = NaiveBayesClassifier(sample, "body_style", ("make", "model"))
        _assert_counts_match_reference(nbc, sample)

    def test_nbc_with_nulls_in_class_and_features(self):
        relation = Relation(
            Schema.of("cls", "f", "g"),
            [
                ("a", "x", NULL),
                ("a", NULL, NULL),
                (NULL, "x", NULL),
                ("b", "y", NULL),
                ("b", "x", NULL),
                ("a", "y", NULL),
            ],
        )
        nbc = NaiveBayesClassifier(relation, "cls", ("f", "g"))
        _assert_counts_match_reference(nbc, relation)
        assert nbc._domain_sizes["g"] == 1  # all-NULL feature: smoothed to 1

