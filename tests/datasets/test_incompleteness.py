"""The GD → ED masking protocol (Section 6.2)."""

import pytest

from repro.datasets import generate_cars, make_incomplete
from repro.errors import QpiadError
from repro.relational import is_null


@pytest.fixture(scope="module")
def dataset():
    return make_incomplete(generate_cars(2000, seed=2), incomplete_fraction=0.1, seed=9)


class TestMasking:
    def test_fraction_of_rows_masked(self, dataset):
        assert len(dataset.masked) == 200
        assert dataset.incomplete.incomplete_fraction() == pytest.approx(0.1)

    def test_each_masked_row_loses_exactly_one_cell(self, dataset):
        schema = dataset.incomplete.schema
        for cell in dataset.masked:
            row = dataset.incomplete.rows[cell.row_index]
            nulls = sum(1 for value in row if is_null(value))
            assert nulls == 1
            assert is_null(row[schema.index_of(cell.attribute)])

    def test_masked_cells_record_the_truth(self, dataset):
        for cell in dataset.masked[:50]:
            assert dataset.true_value(cell.row_index, cell.attribute) == cell.true_value
            assert not is_null(cell.true_value)

    def test_rows_stay_aligned(self, dataset):
        schema = dataset.incomplete.schema
        for index in range(0, len(dataset.incomplete), 97):
            ed_row = dataset.incomplete.rows[index]
            gd_row = dataset.complete.rows[index]
            for position, value in enumerate(ed_row):
                if not is_null(value):
                    assert value == gd_row[position]

    def test_deterministic_under_seed(self):
        cars = generate_cars(300, seed=4)
        a = make_incomplete(cars, seed=7)
        b = make_incomplete(cars, seed=7)
        assert a.incomplete == b.incomplete
        assert a.masked == b.masked


class TestOptions:
    def test_maskable_attributes_restrict_targets(self):
        cars = generate_cars(300, seed=4)
        dataset = make_incomplete(
            cars, seed=7, maskable_attributes=["body_style"]
        )
        assert all(cell.attribute == "body_style" for cell in dataset.masked)

    def test_attribute_weights_skew_masking(self):
        cars = generate_cars(3000, seed=4)
        dataset = make_incomplete(
            cars,
            seed=7,
            attribute_weights={"body_style": 10.0},
        )
        body = sum(1 for cell in dataset.masked if cell.attribute == "body_style")
        assert body / len(dataset.masked) > 0.4  # 10x the weight of others

    def test_invalid_fraction_rejected(self):
        cars = generate_cars(100, seed=1)
        with pytest.raises(QpiadError):
            make_incomplete(cars, incomplete_fraction=0.0)
        with pytest.raises(QpiadError):
            make_incomplete(cars, incomplete_fraction=1.0)

    def test_negative_weights_rejected(self):
        cars = generate_cars(100, seed=1)
        with pytest.raises(QpiadError):
            make_incomplete(cars, attribute_weights={"make": -1.0})
