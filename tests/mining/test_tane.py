"""Levelwise AFD/AKey discovery."""

import random

import pytest

from repro.errors import MiningError
from repro.mining import TaneConfig, mine_dependencies
from repro.relational import NULL, Relation, Schema


def _planted_relation(size: int = 300, noise: float = 0.1, seed: int = 5) -> Relation:
    """model -> make exactly; model ~> body with 1-noise confidence."""
    rng = random.Random(seed)
    makes = {"Accord": "Honda", "Civic": "Honda", "Z4": "BMW", "X5": "BMW"}
    bodies = {"Accord": "Sedan", "Civic": "Sedan", "Z4": "Convt", "X5": "SUV"}
    rows = []
    for i in range(size):
        model = rng.choice(list(makes))
        body = bodies[model]
        if rng.random() < noise:
            body = rng.choice(["Sedan", "Convt", "SUV", "Coupe"])
        rows.append((i, model, makes[model], body))
    return Relation(Schema.of("vin", "model", "make", "body"), rows)


class TestDiscovery:
    @pytest.fixture(scope="class")
    def result(self):
        relation = _planted_relation()
        config = TaneConfig(min_confidence=0.8, max_determining_size=2, min_support=20)
        return mine_dependencies(relation, config)

    def test_exact_fd_found_with_full_confidence(self, result):
        best = result.best_afd("make")
        assert best is not None
        assert best.determining == ("model",)
        assert best.confidence == pytest.approx(1.0)

    def test_approximate_fd_found_with_planted_confidence(self, result):
        afd = next(a for a in result.afds if a.dependent == "body" and a.determining == ("model",))
        # noise=0.1, but a noisy draw can still hit the primary body style.
        assert 0.85 <= afd.confidence <= 0.95

    def test_vin_discovered_as_key(self, result):
        assert any(key.attributes == ("vin",) for key in result.akeys)

    def test_supersets_of_keys_not_expanded(self, result):
        for key in result.akeys:
            assert len(key.attributes) == 1  # {vin, x} never emitted

    def test_minimality_no_superset_afds_for_satisfied_dependent(self, result):
        determining_sets = [
            afd.determining for afd in result.afds if afd.dependent == "make"
        ]
        assert ("model",) in determining_sets
        assert all(set(d) == {"model"} or "model" not in d for d in determining_sets)

    def test_afds_sorted_per_dependent_best_first(self, result):
        for dependent in ("make", "body"):
            confs = [a.confidence for a in result.afds_for(dependent)]
            assert confs == sorted(confs, reverse=True)


class TestConfig:
    def test_needs_two_attributes(self):
        relation = Relation(Schema.of("only"), [("a",)])
        with pytest.raises(MiningError):
            mine_dependencies(relation)

    def test_invalid_confidence_rejected(self):
        with pytest.raises(MiningError):
            TaneConfig(min_confidence=0.0)

    def test_invalid_depth_rejected(self):
        with pytest.raises(MiningError):
            TaneConfig(max_determining_size=0)

    def test_min_support_filters_thin_dependencies(self):
        relation = _planted_relation(size=30)
        strict = mine_dependencies(
            relation, TaneConfig(min_confidence=0.8, min_support=100)
        )
        assert strict.afds == []

    def test_attribute_restriction(self):
        relation = _planted_relation()
        result = mine_dependencies(
            relation,
            TaneConfig(min_confidence=0.8, attributes=("model", "make"), min_support=5),
        )
        assert all(
            set(afd.determining) | {afd.dependent} <= {"model", "make"}
            for afd in result.afds
        )


class TestNearKeyExpansion:
    def test_default_never_mints_key_based_afds(self):
        relation = _planted_relation()
        result = mine_dependencies(
            relation, TaneConfig(min_confidence=0.8, min_support=10)
        )
        assert not any("vin" in afd.determining for afd in result.afds)

    def test_expand_near_keys_mints_them(self):
        relation = _planted_relation()
        result = mine_dependencies(
            relation,
            TaneConfig(min_confidence=0.8, min_support=10, expand_near_keys=True),
        )
        vin_afds = [afd for afd in result.afds if afd.determining == ("vin",)]
        assert vin_afds
        assert all(afd.confidence == 1.0 for afd in vin_afds)  # a key determines all


class TestNullHandling:
    def test_nulls_do_not_break_discovery(self):
        relation = _planted_relation()
        rows = [
            (vin, NULL if vin % 7 == 0 else model, make, body)
            for vin, model, make, body in relation.rows
        ]
        noisy = Relation(relation.schema, rows)
        result = mine_dependencies(
            noisy, TaneConfig(min_confidence=0.8, min_support=20)
        )
        best = result.best_afd("make")
        assert best is not None and best.determining == ("model",)
