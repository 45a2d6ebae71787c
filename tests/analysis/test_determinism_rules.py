"""Tests for the reproducibility rule (unseeded-rng)."""

from repro.analysis.rules.determinism import UnseededRngRule


class TestUnseededRng:
    rule = UnseededRngRule()

    # -- positives ---------------------------------------------------------

    def test_flags_module_level_random_functions(self, check):
        findings = check(
            self.rule,
            """
            import random

            value = random.random()
            pick = random.choice(items)
            """,
        )
        assert len(findings) == 2
        assert all(f.rule == "unseeded-rng" for f in findings)

    def test_flags_unseeded_random_constructor(self, check):
        findings = check(
            self.rule,
            """
            import random

            rng = random.Random()
            """,
        )
        assert len(findings) == 1
        assert "seed" in findings[0].message

    def test_flags_numpy_global_rng(self, check):
        findings = check(
            self.rule,
            """
            import numpy as np

            noise = np.random.rand(10)
            """,
        )
        assert len(findings) == 1

    def test_flags_unseeded_default_rng(self, check):
        findings = check(
            self.rule,
            """
            import numpy as np

            rng = np.random.default_rng()
            """,
        )
        assert len(findings) == 1

    def test_flags_bare_imported_shuffle(self, check):
        findings = check(
            self.rule,
            """
            from random import shuffle

            shuffle(items)
            """,
        )
        assert len(findings) == 1

    # -- negatives ---------------------------------------------------------

    def test_seeded_generators_are_clean(self, check):
        assert (
            check(
                self.rule,
                """
                import random
                import numpy as np

                rng = random.Random(17)
                nprng = np.random.default_rng(seed=17)
                draws = rng.random()
                """,
            )
            == []
        )

    def test_unrelated_attribute_named_random_is_clean(self, check):
        assert check(self.rule, "value = strategy.random()\n") == []

    def test_system_random_is_exempt(self, check):
        assert (
            check(
                self.rule,
                """
                import random

                token_rng = random.SystemRandom()
                """,
            )
            == []
        )

    # -- suppression -------------------------------------------------------

    def test_line_suppression(self, report):
        result = report(
            self.rule,
            """
            import random

            value = random.random()  # qpiadlint: disable=unseeded-rng
            """,
        )
        assert result.findings == []
        assert result.suppressed_count == 1


class TestSeedProvenanceKnownBad:
    """An explicit seed argument that is None, the clock, or an unchecked
    ``None`` default leaves the generator effectively unseeded."""

    rule = UnseededRngRule()

    def test_none_default_seed_helper_is_flagged_where_defined(self, check):
        findings = check(
            self.rule,
            """
            import random

            def make_rng(seed=None):
                return random.Random(seed)
            """,
            module="repro.util",
        )
        assert len(findings) == 1
        assert findings[0].rule == "unseeded-rng"
        assert findings[0].line == 5
        assert "'seed' defaults to None" in findings[0].message
        assert "random.Random" in findings[0].message

    def test_helper_outside_sensitive_packages_is_flagged(self, check):
        # Every package is checked: a seed=None helper in scripts or sources
        # is as unreproducible as one in the mediators.
        findings = check(
            self.rule,
            """
            import random

            def demo(seed=None):
                return random.Random(seed).random()
            """,
            module="repro.sources.helpers",
        )
        assert [f.rule for f in findings] == ["unseeded-rng"]

    def test_wall_clock_seed_is_flagged(self, check):
        findings = check(
            self.rule,
            """
            import random
            import time

            def sample():
                return random.Random(time.time())
            """,
        )
        assert len(findings) == 1
        assert "nondeterministic time.time()" in findings[0].message

    def test_none_default_inside_arithmetic_is_flagged(self, check):
        findings = check(
            self.rule,
            """
            import random

            def split(seed=None):
                return random.Random(seed + 1)
            """,
        )
        assert len(findings) == 1
        assert "'seed' defaults to None" in findings[0].message

    def test_wall_clock_inside_arithmetic_is_flagged(self, check):
        findings = check(
            self.rule,
            """
            from time import time_ns
            import random

            rng = random.Random(time_ns() + 1)
            """,
        )
        assert len(findings) == 1
        assert "time.time_ns()" in findings[0].message

    def test_numpy_default_rng_is_covered(self, check):
        findings = check(
            self.rule,
            """
            import numpy as np

            def probe():
                return np.random.default_rng(None)
            """,
            module="repro.mining.probe",
        )
        assert len(findings) == 1
        assert "literally None" in findings[0].message

    def test_zero_arg_construction_is_reported_exactly_once(self, check):
        findings = check(
            self.rule,
            """
            import random

            def sample(seed=None):
                return random.Random()
            """,
        )
        assert len(findings) == 1
        assert "without a seed" in findings[0].message


class TestSeedProvenanceKnownGood:
    rule = UnseededRngRule()

    def test_seed_from_config_or_required_parameter_is_clean(self, check):
        source = """
            import random

            def make_rng(seed):
                return random.Random(seed)

            def mediate(config):
                return random.Random(config.seed)
        """
        assert check(self.rule, source) == []

    def test_constant_seed_is_clean(self, check):
        source = """
            import random

            def sample():
                return random.Random(7)
        """
        assert check(self.rule, source) == []

    def test_none_guard_in_conditional_expression_is_respected(self, check):
        # An optional seed whose None deliberately means "no randomness".
        source = """
            import random

            def build(jitter_seed=None):
                rng = None if jitter_seed is None else random.Random(jitter_seed)
                return rng
        """
        assert check(self.rule, source) == []

    def test_none_guard_in_if_statement_is_respected(self, check):
        source = """
            import random

            def build(jitter_seed=None):
                if jitter_seed is None:
                    rng = None
                else:
                    rng = random.Random(jitter_seed)
                if jitter_seed is not None:
                    rng = random.Random(jitter_seed + 1)
                return rng
        """
        assert check(self.rule, source) == []

    def test_guard_on_another_name_does_not_count(self, check):
        findings = check(
            self.rule,
            """
            import random

            def build(seed=None, other=None):
                if other is not None:
                    return random.Random(seed)
                return None
            """,
        )
        assert len(findings) == 1


class TestSeedProvenanceSuppression:
    def test_line_directive_suppresses_the_finding(self, report):
        result = report(
            UnseededRngRule(),
            """
            import random
            import time

            def sample():
                # Demo-only path; figures never run through it.
                return random.Random(time.time())  # qpiadlint: disable=unseeded-rng
            """,
        )
        assert result.findings == []
        assert result.suppressed_count == 1
