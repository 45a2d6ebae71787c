"""The unguarded-shared-write rule over known-good/known-bad classes."""

from __future__ import annotations

from repro.analysis.rules.concurrency import UnguardedSharedWriteRule

_STATS_BAD = """
    import threading

    class Stats:
        def __init__(self):
            self._lock = threading.Lock()
            self.calls = 0
            self.events = []

        def record(self, n):
            with self._lock:
                self.calls += n
                self.events.append(n)

        def reset(self):
            self.calls = 0
"""


class TestKnownBad:
    rule = UnguardedSharedWriteRule()

    def test_unlocked_write_to_guarded_attribute_is_flagged(self, check):
        findings = check(self.rule, _STATS_BAD, path="shared.py")
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "unguarded-shared-write"
        assert finding.path.endswith("shared.py")
        assert "Stats.calls" in finding.message
        assert "without holding the lock" in finding.message

    def test_unlocked_mutator_call_is_flagged(self, check):
        findings = check(
            self.rule,
            """
            import threading

            class Stats:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.events = []

                def record(self, n):
                    with self._lock:
                        self.events.append(n)

                def drop(self):
                    self.events.clear()
            """,
        )
        assert len(findings) == 1
        assert "Stats.events" in findings[0].message

    def test_prefix_conflict_catches_nested_field_write(self, check):
        findings = check(
            self.rule,
            """
            import threading

            class Box:
                calls = 0

            class Stats:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.inner = Box()

                def record(self, n):
                    with self._lock:
                        self.inner.calls += n

                def reset(self):
                    self.inner = Box()
            """,
        )
        assert len(findings) == 1
        assert "Stats.inner" in findings[0].message

    def test_unreachable_class_is_held_to_lock_discipline(self, check):
        # Holding a lock is the evidence of sharing: the rule asks no
        # reachability question, so a class only ever driven serially is
        # held to its own discipline too.
        findings = check(
            self.rule,
            _STATS_BAD
            + """
    def run():
        stats = Stats()
        stats.record(1)
        return stats
""",
        )
        assert [f.rule for f in findings] == ["unguarded-shared-write"]


class TestKnownGood:
    rule = UnguardedSharedWriteRule()

    def test_lock_disciplined_class_is_clean(self, check):
        source = """
            import threading

            class Stats:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.calls = 0

                def record(self, n):
                    with self._lock:
                        self.calls += n

                def reset(self):
                    with self._lock:
                        self.calls = 0
        """
        assert check(self.rule, source) == []

    def test_write_nested_under_lock_context_is_guarded(self, check):
        source = """
            import threading

            class Stats:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.calls = 0
                    self.events = []

                def record(self, n):
                    with self._lock:
                        if n > 0:
                            self.calls += n
                            self.events.append(n)

                def flush(self):
                    with self._lock:
                        for event in list(self.events):
                            self.events.remove(event)
        """
        assert check(self.rule, source) == []

    def test_constructor_writes_are_exempt(self, check):
        # _STATS_BAD's only finding is reset(); __init__ writes the same
        # attributes unlocked and must not be flagged.
        findings = check(self.rule, _STATS_BAD)
        assert len(findings) == 1
        assert "reset" not in findings[0].message  # anchored at the write
        assert findings[0].line == 16

    def test_class_without_lock_usage_is_clean(self, check):
        source = """
            class Stats:
                def __init__(self):
                    self.calls = 0

                def record(self, n):
                    self.calls += n

                def reset(self):
                    self.calls = 0
        """
        assert check(self.rule, source) == []


class TestSuppression:
    def test_line_directive_suppresses_the_finding(self, report):
        result = report(
            UnguardedSharedWriteRule(),
            """
            import threading

            class Stats:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.calls = 0

                def record(self, n):
                    with self._lock:
                        self.calls += n

                def reset(self):
                    # Snapshot consumers hold the lock themselves; see docs.
                    self.calls = 0  # qpiadlint: disable=unguarded-shared-write
            """,
        )
        assert result.findings == []
        assert result.suppressed_count == 1
