"""Transient-failure retries."""


import pytest

from repro.errors import (
    NullBindingError,
    QpiadError,
    SourceUnavailableError,
)
from repro.query import SelectionQuery
from repro.relational import Relation, Schema
from repro.sources import AutonomousSource, SourceDecorator
from repro.sources.retrying import RetryingSource


class FlakySource(SourceDecorator):
    """A test double that fails transiently every few calls."""

    def __init__(self, inner: AutonomousSource, fail_every: int = 2):
        super().__init__(inner)
        self.fail_every = fail_every
        self._calls = 0

    def _call(self, operation, thunk):
        self._calls += 1
        if self._calls % self.fail_every == 0:
            raise SourceUnavailableError("503 service unavailable")
        return thunk()


@pytest.fixture()
def backend() -> AutonomousSource:
    relation = Relation(
        Schema.of("make", "model"),
        [("Honda", "Accord"), ("BMW", "Z4")],
    )
    return AutonomousSource("cars", relation)


class TestRetrying:
    def test_transient_failures_are_absorbed(self, backend):
        source = RetryingSource(FlakySource(backend, fail_every=2), max_attempts=3)
        for __ in range(6):
            result = source.execute(SelectionQuery.equals("make", "Honda"))
            assert len(result) == 1
        assert source.statistics.retries > 0
        assert source.statistics.gave_up == 0

    def test_gives_up_after_max_attempts(self, backend):
        always_down = FlakySource(backend, fail_every=1)
        source = RetryingSource(always_down, max_attempts=3)
        with pytest.raises(SourceUnavailableError):
            source.execute(SelectionQuery.equals("make", "Honda"))
        assert source.statistics.attempts == 3
        assert source.statistics.gave_up == 1

    def test_permanent_failures_not_retried(self, backend):
        source = RetryingSource(backend, max_attempts=5)
        with pytest.raises(NullBindingError):
            source.execute_null_binding(SelectionQuery.equals("make", "Honda"))
        assert source.statistics.attempts == 1  # no pointless retries

    def test_backoff_doubles(self, backend):
        sleeps = []
        always_down = FlakySource(backend, fail_every=1)
        source = RetryingSource(
            always_down, max_attempts=4, backoff_seconds=0.1, sleep=sleeps.append
        )
        with pytest.raises(SourceUnavailableError):
            source.execute(SelectionQuery.equals("make", "Honda"))
        assert sleeps == pytest.approx([0.1, 0.2, 0.4])

    def test_backoff_capped_at_ceiling(self, backend):
        sleeps = []
        always_down = FlakySource(backend, fail_every=1)
        source = RetryingSource(
            always_down,
            max_attempts=6,
            backoff_seconds=0.1,
            max_backoff_seconds=0.25,
            sleep=sleeps.append,
        )
        with pytest.raises(SourceUnavailableError):
            source.execute(SelectionQuery.equals("make", "Honda"))
        # 0.1 → 0.2 → capped at 0.25 from there on.
        assert sleeps == pytest.approx([0.1, 0.2, 0.25, 0.25, 0.25])

    def test_cap_applies_to_the_first_sleep_too(self, backend):
        sleeps = []
        always_down = FlakySource(backend, fail_every=1)
        source = RetryingSource(
            always_down,
            max_attempts=3,
            backoff_seconds=5.0,
            max_backoff_seconds=0.5,
            sleep=sleeps.append,
        )
        with pytest.raises(SourceUnavailableError):
            source.execute(SelectionQuery.equals("make", "Honda"))
        assert sleeps == pytest.approx([0.5, 0.5])

    def test_jitter_scatters_within_the_half_open_window(self, backend):
        sleeps = []
        always_down = FlakySource(backend, fail_every=1)
        source = RetryingSource(
            always_down,
            max_attempts=5,
            backoff_seconds=1.0,
            jitter_seed=42,
            sleep=sleeps.append,
        )
        with pytest.raises(SourceUnavailableError):
            source.execute(SelectionQuery.equals("make", "Honda"))
        expected = [1.0, 2.0, 4.0, 8.0]
        for actual, nominal in zip(sleeps, expected):
            assert nominal / 2 <= actual <= nominal  # "equal jitter" window
        assert sleeps != pytest.approx(expected)  # jitter actually moved them

    def test_jitter_is_deterministic_per_seed(self, backend):
        def run(seed):
            sleeps = []
            source = RetryingSource(
                FlakySource(backend, fail_every=1),
                max_attempts=4,
                backoff_seconds=0.1,
                jitter_seed=seed,
                sleep=sleeps.append,
            )
            with pytest.raises(SourceUnavailableError):
                source.execute(SelectionQuery.equals("make", "Honda"))
            return sleeps

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_invalid_parameters(self, backend):
        with pytest.raises(QpiadError):
            RetryingSource(backend, max_attempts=0)
        with pytest.raises(QpiadError):
            RetryingSource(backend, backoff_seconds=-1)
        with pytest.raises(QpiadError):
            RetryingSource(backend, max_backoff_seconds=-1)


class TestMediationOverFlakySource:
    def test_full_retrieval_survives_flakiness(self, cars_env):
        from repro.core import QpiadConfig, QpiadMediator

        flaky = FlakySource(cars_env.web_source(), fail_every=3)
        source = RetryingSource(flaky, max_attempts=4)
        mediator = QpiadMediator(source, cars_env.knowledge, QpiadConfig(k=10))
        result = mediator.query(SelectionQuery.equals("body_style", "Convt"))
        assert len(result.certain) > 0
        assert result.ranked
        assert source.statistics.retries >= 1
