"""Exception hierarchy contracts."""

import pytest

from repro import errors


class TestHierarchy:
    def test_everything_derives_from_qpiad_error(self):
        for name in (
            "SchemaError",
            "QueryError",
            "CapabilityError",
            "QueryBudgetExceededError",
            "NullBindingError",
            "UnsupportedAttributeError",
            "MiningError",
            "ClassifierError",
            "RewritingError",
            "SourceUnavailableError",
            "AdmissionRejectedError",
        ):
            assert issubclass(getattr(errors, name), errors.QpiadError)

    def test_capability_family(self):
        assert issubclass(errors.NullBindingError, errors.CapabilityError)
        assert issubclass(errors.QueryBudgetExceededError, errors.CapabilityError)
        assert issubclass(errors.UnsupportedAttributeError, errors.CapabilityError)

    def test_classifier_error_is_a_mining_error(self):
        assert issubclass(errors.ClassifierError, errors.MiningError)

    def test_a_shed_call_is_not_a_source_failure(self):
        # A shed call is local congestion: the source itself is healthy.
        assert not issubclass(errors.AdmissionRejectedError, errors.SourceUnavailableError)

    def test_one_except_clause_catches_the_library(self):
        with pytest.raises(errors.QpiadError):
            raise errors.NullBindingError("no NULL binding")
