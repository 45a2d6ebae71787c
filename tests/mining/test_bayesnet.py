"""Tree-augmented Naive Bayes (the §6.5 Bayesian-network comparator)."""

import random

import pytest

from repro.errors import ClassifierError
from repro.mining.bayesnet import TreeAugmentedNaiveBayes
from repro.relational import NULL, Relation, Schema


@pytest.fixture()
def xor_sample() -> Relation:
    """A dataset where TAN must beat NBC: the class is x XOR y.

    Given the class, x and y are perfectly dependent — Naive Bayes's
    independence assumption collapses their evidence, TAN's tree edge
    between them recovers it.
    """
    rng = random.Random(3)
    rows = []
    for __ in range(400):
        x = rng.choice(("0", "1"))
        y = rng.choice(("0", "1"))
        label = "odd" if x != y else "even"
        rows.append((x, y, label))
    return Relation(Schema.of("x", "y", "label"), rows)


class TestConstruction:
    def test_rejects_degenerate_inputs(self, xor_sample):
        with pytest.raises(ClassifierError):
            TreeAugmentedNaiveBayes(xor_sample, "label", features=["label"])
        with pytest.raises(ClassifierError):
            TreeAugmentedNaiveBayes(xor_sample, "label", features=[])
        with pytest.raises(ClassifierError):
            TreeAugmentedNaiveBayes(xor_sample, "label", m=-1)

    def test_all_null_class_rejected(self):
        relation = Relation(Schema.of("x", "y"), [("a", NULL)])
        with pytest.raises(ClassifierError):
            TreeAugmentedNaiveBayes(relation, "y")

    def test_tree_has_single_root_and_one_parent_each(self, xor_sample):
        tan = TreeAugmentedNaiveBayes(xor_sample, "label")
        parents = tan.tree_parents
        roots = [f for f, parent in parents.items() if parent is None]
        assert len(roots) == 1
        assert set(parents) == {"x", "y"}


class TestXorRecovery:
    def test_tan_solves_xor(self, xor_sample):
        tan = TreeAugmentedNaiveBayes(xor_sample, "label")
        assert tan.predict({"x": "0", "y": "1"})[0] == "odd"
        assert tan.predict({"x": "1", "y": "1"})[0] == "even"
        assert tan.predict({"x": "0", "y": "0"})[0] == "even"

    def test_naive_bayes_cannot(self, xor_sample):
        from repro.mining import NaiveBayesClassifier

        nbc = NaiveBayesClassifier(xor_sample, "label", ["x", "y"])
        posterior = nbc.distribution({"x": "0", "y": "1"})
        # NBC sees ~uniform evidence: neither class clearly wins.
        assert abs(posterior["odd"] - posterior["even"]) < 0.2
        tan = TreeAugmentedNaiveBayes(xor_sample, "label")
        tan_posterior = tan.distribution({"x": "0", "y": "1"})
        assert tan_posterior["odd"] > 0.8


class TestDistributionContract:
    def test_normalized_posteriors(self, xor_sample):
        tan = TreeAugmentedNaiveBayes(xor_sample, "label")
        for evidence in ({}, {"x": "0"}, {"x": "0", "y": "1"}, {"x": "unseen"}):
            posterior = tan.distribution(evidence)
            assert sum(posterior.values()) == pytest.approx(1.0)

    def test_null_evidence_skipped(self, xor_sample):
        tan = TreeAugmentedNaiveBayes(xor_sample, "label")
        assert tan.distribution({"x": NULL}) == tan.distribution({})

    def test_missing_parent_falls_back_to_marginal(self, xor_sample):
        tan = TreeAugmentedNaiveBayes(xor_sample, "label")
        posterior = tan.distribution({"x": "0"})  # y (or x) parent absent
        assert sum(posterior.values()) == pytest.approx(1.0)


class TestCompetitiveOnCars:
    def test_accuracy_competitive_with_nbc(self, cars_env):
        """§6.5: BN accuracy is competitive with AFD-enhanced NBC."""
        from repro.relational import is_null

        kb = cars_env.knowledge
        tan = TreeAugmentedNaiveBayes(
            kb._training_view("body_style"), "body_style",
        )
        schema = cars_env.dataset.incomplete.schema
        test_rows = set(cars_env.test.rows)
        tan_correct = nbc_correct = total = 0
        for cell in cars_env.dataset.masked:
            if cell.attribute != "body_style":
                continue
            row = cars_env.dataset.incomplete.rows[cell.row_index]
            if row not in test_rows:
                continue
            evidence = {
                name: value
                for name, value in zip(schema.names, row)
                if not is_null(value) and name != "body_style"
            }
            prepared = kb._prepare_evidence(evidence)
            tan_correct += tan.predict(prepared)[0] == cell.true_value
            [(predicted, __)] = kb.completions("body_style", [evidence])
            nbc_correct += predicted == cell.true_value
            total += 1
        assert total >= 20
        # Competitive: within 10 points either way.
        assert abs(tan_correct - nbc_correct) / total < 0.10

    def test_tan_is_costlier_to_learn_than_nbc(self, cars_env):
        """§6.5's other half: the AFD-enhanced classifier is cheaper."""
        import time

        from repro.mining import NaiveBayesClassifier

        view = cars_env.knowledge._training_view("body_style")
        features = [n for n in view.schema.names if n != "body_style"]

        start = time.perf_counter()
        for __ in range(3):
            NaiveBayesClassifier(view, "body_style", features[:2])
        nbc_time = time.perf_counter() - start

        start = time.perf_counter()
        for __ in range(3):
            TreeAugmentedNaiveBayes(view, "body_style")
        tan_time = time.perf_counter() - start
        assert tan_time > nbc_time
