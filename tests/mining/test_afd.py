"""AFD / AKey value objects."""

import pytest

from repro.errors import MiningError
from repro.mining import Afd, AKey


class TestAfd:
    def test_determining_set_is_sorted(self):
        afd = Afd(("year", "model"), "price", 0.9)
        assert afd.determining == ("model", "year")

    def test_dependent_cannot_be_in_determining_set(self):
        with pytest.raises(MiningError):
            Afd(("model",), "model", 0.9)

    def test_confidence_range_validated(self):
        with pytest.raises(MiningError):
            Afd(("model",), "make", 1.5)
        with pytest.raises(MiningError):
            Afd(("model",), "make", -0.1)

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(MiningError):
            Afd(("model", "model"), "make", 0.9)

    def test_empty_determining_set_rejected(self):
        with pytest.raises(MiningError):
            Afd((), "make", 0.9)

    def test_str(self):
        text = str(Afd(("model",), "body", 0.876))
        assert "model" in text and "0.876" in text

    def test_value_equality(self):
        assert Afd(("a", "b"), "c", 0.9) == Afd(("b", "a"), "c", 0.9)


class TestAKey:
    def test_subset_check(self):
        key = AKey(("vin",), 0.99)
        assert key.is_subset_of(("make", "vin"))
        assert not key.is_subset_of(("make",))

    def test_attributes_sorted(self):
        assert AKey(("b", "a"), 0.9).attributes == ("a", "b")

    def test_confidence_validated(self):
        with pytest.raises(MiningError):
            AKey(("vin",), 2.0)

    def test_str(self):
        assert "vin" in str(AKey(("vin",), 0.95))
