"""KnowledgeBase facade over the full mining stack."""

import pytest

from repro.core.rewriting import target_probabilities
from repro.errors import MiningError
from repro.mining import KnowledgeBase, MiningConfig, TaneConfig
from repro.query import Equals
from repro.relational import Relation, Schema, is_null


class TestConstruction:
    def test_empty_sample_rejected(self):
        with pytest.raises(MiningError):
            KnowledgeBase(Relation(Schema.of("a", "b"), []), 100)

    def test_unknown_classifier_method_rejected(self):
        with pytest.raises(MiningError):
            MiningConfig(classifier_method="magic")

    def test_kb_summarizes_itself(self, cars_env):
        text = repr(cars_env.knowledge)
        assert "AFDs" in text and "sample rows" in text


class TestAttributeCorrelations:
    def test_planted_fd_is_best_for_make(self, cars_env):
        best = cars_env.knowledge.best_afd("make")
        assert best is not None
        assert best.determining == ("model",)
        assert best.confidence > 0.98

    def test_planted_afd_for_body_style(self, cars_env):
        best = cars_env.knowledge.best_afd("body_style")
        assert best is not None
        assert "model" in best.determining
        assert 0.75 < best.confidence <= 1.0

    def test_afds_for_is_sorted(self, cars_env):
        afds = cars_env.knowledge.afds_for("price")
        confs = [a.confidence for a in afds]
        assert confs == sorted(confs, reverse=True)

    def test_pruned_afds_subset_of_all(self, cars_env):
        kb = cars_env.knowledge
        assert set(kb.afds) <= set(kb.all_afds)


class TestValueDistributions:
    def test_distribution_normalized(self, cars_env):
        posterior = cars_env.knowledge.value_distribution(
            "body_style", {"model": "Boxster"}
        )
        assert sum(posterior.values()) == pytest.approx(1.0)

    def test_convertible_models_lean_convt(self, cars_env):
        posterior = cars_env.knowledge.value_distribution(
            "body_style", {"model": "Boxster"}
        )
        assert max(posterior, key=posterior.get) == "Convt"

    def test_estimated_precision_matches_distribution(self, cars_env):
        kb = cars_env.knowledge
        posterior = kb.value_distribution("body_style", {"model": "Z4"})
        [precision] = target_probabilities(
            kb, "body_style", (Equals("body_style", "Convt"),), [{"model": "Z4"}]
        )
        assert precision == pytest.approx(posterior["Convt"])

    def test_numeric_evidence_is_bucketed(self, cars_env):
        # Raw prices and their bucket labels must give the same posterior.
        kb = cars_env.knowledge
        raw = kb.value_distribution("body_style", {"model": "Z4", "price": 40000})
        labeled = kb.value_distribution(
            "body_style", {"model": "Z4", "price": kb.mining_label("price", 40000)}
        )
        assert raw == labeled

    def test_predict_value_returns_raw_domain_value(self, cars_env):
        kb = cars_env.knowledge
        [(value, probability)] = kb.completions("price", [{"model": "911", "year": 2006}])
        assert isinstance(value, (int, float))
        assert value in set(cars_env.train.column("price"))
        assert 0.0 < probability <= 1.0

    def test_predict_matches_is_consistent_with_argmax(self, cars_env):
        kb = cars_env.knowledge
        posterior = kb.value_distribution("body_style", {"model": "Z4"})
        top = max(posterior, key=posterior.get)
        [(label, probability)] = kb.completions("body_style", [{"model": "Z4"}])
        assert label == top and probability == posterior[top]

    def test_classifier_cache_reuses_instances(self, cars_env):
        kb = cars_env.knowledge
        assert kb.classifier("body_style") is kb.classifier("body_style")
        assert kb.classifier("body_style") is not kb.classifier(
            "body_style", "all-attributes"
        )

    def test_evidence_from_row_drops_nulls(self, cars_env):
        """A whole row, its NULL target included, is the same evidence as
        the row with its NULLs and the target dropped by hand."""
        kb = cars_env.knowledge
        incomplete = cars_env.dataset.incomplete
        names = incomplete.schema.names
        row = next(r for r in incomplete if not incomplete.is_complete_row(r))
        [target] = [name for name, value in zip(names, row) if is_null(value)]
        filtered = {
            name: value
            for name, value in zip(names, row)
            if not is_null(value) and name != target
        }
        assert len(filtered) == len(incomplete.schema) - 1
        whole, by_hand = kb.value_distributions(target, [dict(zip(names, row)), filtered])
        assert [(repr(value), mass.hex()) for value, mass in whole.items()] == [
            (repr(value), mass.hex()) for value, mass in by_hand.items()
        ]


class TestSelectivityWiring:
    def test_sample_ratio_reflects_database_size(self, cars_env):
        kb = cars_env.knowledge
        assert kb.selectivity.sample_ratio == pytest.approx(
            len(cars_env.test) / len(cars_env.train)
        )

    def test_per_inc_close_to_injected_incompleteness(self, cars_env):
        # 10% of tuples were masked; the sample should see roughly that.
        assert 0.04 <= kb_inc(cars_env) <= 0.2


def kb_inc(env) -> float:
    return env.knowledge.selectivity.incomplete_fraction


class TestDiscretizationToggle:
    def test_mining_without_discretization(self):
        schema = Schema.of("model", "make")
        rows = [("Accord", "Honda")] * 30 + [("Z4", "BMW")] * 30
        kb = KnowledgeBase(
            Relation(schema, rows),
            database_size=600,
            config=MiningConfig(
                discretize_bins=0,
                tane=TaneConfig(min_confidence=0.8, min_support=10),
            ),
        )
        assert not kb.is_discretized("model")
        with pytest.raises(MiningError):
            kb.bucket_bounds("model", "bin0")
        assert kb.representative_value("model", "Accord") == "Accord"


class TestFrozenGeneration:
    """A KnowledgeBase is a frozen generation: content fixed at mining time."""

    @pytest.fixture()
    def knowledge(self):
        from repro.datasets import generate_cars

        return KnowledgeBase(generate_cars(300, seed=11), database_size=3000)

    def test_fingerprint_survives_classifier_cache_population(self, knowledge):
        before = knowledge.fingerprint()
        # Populating the lazy classifier cache is the one post-construction
        # mutation left — it must not shift the generation's identity.
        knowledge.value_distribution("body_style", {"model": "Z4"})
        knowledge.classifier("make")
        assert knowledge.fingerprint() == before

    def test_mined_payload_cannot_be_rebound(self, knowledge):
        with pytest.raises(MiningError, match="frozen"):
            knowledge.afds = ()
        with pytest.raises(MiningError, match="frozen"):
            knowledge.database_size = 1
        with pytest.raises(MiningError, match="frozen"):
            knowledge.epoch = 5
