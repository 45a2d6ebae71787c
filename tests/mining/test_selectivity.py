"""Selectivity estimation: EstSel = SmplSel * SmplRatio * PerInc."""

import pytest

from repro.errors import MiningError
from repro.mining import SelectivityEstimator
from repro.query import SelectionQuery
from repro.relational import NULL, Relation, Schema


@pytest.fixture()
def sample() -> Relation:
    schema = Schema.of("make", "body")
    rows = [
        ("Honda", "Sedan"),
        ("Honda", NULL),
        ("BMW", "Convt"),
        ("BMW", "Convt"),
        ("Audi", NULL),
    ]
    return Relation(schema, rows)


class TestConstruction:
    def test_from_sample_derives_ratio_and_perinc(self, sample):
        estimator = SelectivityEstimator.from_sample(sample, database_size=50)
        assert estimator.sample_ratio == pytest.approx(10.0)
        assert estimator.incomplete_fraction == pytest.approx(2 / 5)

    def test_empty_sample_rejected(self):
        empty = Relation(Schema.of("a"), [])
        with pytest.raises(MiningError):
            SelectivityEstimator.from_sample(empty, 10)

    def test_invalid_parameters_rejected(self, sample):
        with pytest.raises(MiningError):
            SelectivityEstimator(sample, sample_ratio=0, incomplete_fraction=0.1)
        with pytest.raises(MiningError):
            SelectivityEstimator(sample, sample_ratio=1, incomplete_fraction=1.5)


class TestEstimates:
    @pytest.fixture()
    def estimator(self, sample):
        return SelectivityEstimator.from_sample(sample, database_size=50)

    def test_sample_selectivity_counts_certain_matches(self, estimator):
        assert estimator.sample_selectivity(SelectionQuery.equals("make", "Honda")) == 2

    def test_estimate_multiplies_per_inc(self, estimator):
        query = SelectionQuery.equals("make", "BMW")
        assert estimator.estimate(query) == pytest.approx(2 * 10.0 * 0.4)

    def test_unselective_query_estimates_zero(self, estimator):
        assert estimator.estimate(SelectionQuery.equals("make", "Fiat")) == 0.0
