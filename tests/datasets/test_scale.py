"""The seeded scale-factor generators feeding the scale benchmarks and goldens."""

import pytest

from repro.datasets import (
    SCALE_BASE_SIZES,
    SCALE_FACTORS,
    scaled_complete,
    scaled_incomplete,
)
from repro.errors import QpiadError


class TestScaledComplete:
    @pytest.mark.parametrize("dataset", ["cars", "census"])
    @pytest.mark.parametrize("factor", [1, 10])
    def test_sizes_scale_linearly(self, dataset, factor):
        relation = scaled_complete(dataset, factor)
        assert len(relation) == SCALE_BASE_SIZES[dataset] * factor

    def test_deterministic_across_calls(self):
        first = scaled_complete("cars", 10)
        second = scaled_complete("cars", 10)
        assert first.rows == second.rows

    def test_factors_are_independent_draws_not_prefixes(self):
        # A 10x relation must not be "the 1x relation plus more rows" —
        # derived seeds keep value distributions honest at every size.
        small = scaled_complete("cars", 1)
        large = scaled_complete("cars", 10)
        assert large.rows[: len(small)] != small.rows

    def test_complete_relations_have_no_nulls(self):
        relation = scaled_complete("census", 1)
        assert relation.incomplete_fraction() == 0.0

    def test_unknown_dataset_and_factor_rejected(self):
        with pytest.raises(QpiadError):
            scaled_complete("movies", 1)
        with pytest.raises(QpiadError):
            scaled_complete("cars", 7)
        assert 7 not in SCALE_FACTORS


class TestScaledIncomplete:
    def test_masking_is_seeded_and_deterministic(self):
        first = scaled_incomplete("cars", 1)
        second = scaled_incomplete("cars", 1)
        assert first.incomplete.rows == second.incomplete.rows

    def test_incomplete_fraction_near_requested(self):
        dataset = scaled_incomplete("census", 1, incomplete_fraction=0.10)
        fraction = dataset.incomplete.incomplete_fraction()
        assert 0.05 <= fraction <= 0.15

    def test_complete_half_matches_scaled_complete(self):
        dataset = scaled_incomplete("cars", 1)
        assert dataset.complete.rows == scaled_complete("cars", 1).rows

    def test_mask_seed_differs_per_factor(self):
        one = scaled_incomplete("cars", 1)
        ten = scaled_incomplete("cars", 10)
        # Same protocol, different derived seed -> different masked cells
        # (compare the first base-size rows of the masks' row indices).
        masked_one = {cell.row_index for cell in one.masked}
        masked_ten = {cell.row_index for cell in ten.masked}
        assert masked_one != masked_ten
