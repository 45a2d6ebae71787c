"""SingleFlight: leader/follower dedup, exact failure propagation."""

import threading

import pytest

from repro.errors import SourceUnavailableError
from repro.resilience import SingleFlight


class TestLeadership:
    def test_first_caller_leads_second_follows(self):
        flights = SingleFlight()
        flight, leader = flights.lead_or_join("k")
        assert leader
        same, follower_leads = flights.lead_or_join("k")
        assert same is flight
        assert not follower_leads

    def test_distinct_keys_fly_independently(self):
        flights = SingleFlight()
        __, a_leads = flights.lead_or_join("a")
        __, b_leads = flights.lead_or_join("b")
        assert a_leads and b_leads
        assert flights.in_flight() == 2

    def test_completion_clears_the_flight(self):
        flights = SingleFlight()
        flight, __ = flights.lead_or_join("k")
        flights.complete("k", flight, value=1)
        assert flights.in_flight() == 0
        __, leads_again = flights.lead_or_join("k")
        assert leads_again  # not a cache: a fresh call leads a fresh flight


class TestOutcomeSharing:
    def test_followers_share_the_leader_value(self):
        flights = SingleFlight()
        flight, __ = flights.lead_or_join("k")
        flights.lead_or_join("k")
        followers = flights.complete("k", flight, value="result")
        assert followers == 1
        assert flights.wait(flight) == "result"

    def test_followers_get_the_leader_exception_verbatim(self):
        flights = SingleFlight()
        flight, __ = flights.lead_or_join("k")
        flights.lead_or_join("k")
        error = SourceUnavailableError("down")
        flights.complete("k", flight, error=error)
        with pytest.raises(SourceUnavailableError) as caught:
            flights.wait(flight)
        assert caught.value is error

    def test_concurrent_followers_each_get_the_result_once(self):
        flights = SingleFlight()
        flight, __ = flights.lead_or_join("k")
        results = []
        lock = threading.Lock()

        def follow():
            __, leads = flights.lead_or_join("k")
            assert not leads
            value = flights.wait(flight)
            with lock:
                results.append(value)

        threads = [threading.Thread(target=follow) for _ in range(8)]
        for thread in threads:
            thread.start()
        shared = flights.complete("k", flight, value=42)
        for thread in threads:
            thread.join()
        assert results == [42] * 8
        assert shared == 8
