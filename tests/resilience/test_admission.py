"""Admission control: token buckets, retry budgets, the front door."""

import pytest

from repro.resilience import (
    AdmissionController,
    LoadShedError,
    RetryBudget,
    TokenBucket,
)
from repro.resilience.admission import DEFAULT_SOURCE, MAX_TRACKED_SOURCES


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=2.0, burst=3.0, clock=clock)
        assert [bucket.try_take() for _ in range(4)] == [True, True, True, False]
        clock.advance(0.5)  # 1 token drips back in
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=100.0, burst=2.0, clock=clock)
        clock.advance(1000.0)
        assert bucket.try_take(2.0)
        assert not bucket.try_take()

    def test_weighted_take(self):
        bucket = TokenBucket(rate_per_s=1.0, burst=5.0, clock=FakeClock())
        assert bucket.try_take(5.0)
        assert not bucket.try_take(0.5)

    def test_exact_balance_is_takeable(self):
        # Float drift must not shed a request the budget arithmetic says
        # should pass: 0.1 * 3 != 0.3 exactly.
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=0.1, burst=1.0, clock=clock)
        assert bucket.try_take(1.0)
        for _ in range(10):
            clock.advance(1.0)
            bucket.try_take(0.0)
        assert bucket.try_take(1.0)

    @pytest.mark.parametrize("kwargs", [{"rate_per_s": 0.0}, {"burst": 0.0}])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TokenBucket(**{"rate_per_s": 1.0, "burst": 1.0, **kwargs})


class TestRetryBudget:
    def test_reserve_allows_cold_start_retries(self):
        budget = RetryBudget(ratio=0.2, reserve=3.0)
        assert [budget.allow_retry() for _ in range(4)] == [
            True, True, True, False,
        ]
        assert budget.denied == 1

    def test_deposits_are_a_fraction_of_traffic(self):
        budget = RetryBudget(ratio=0.1, reserve=0.0)
        for _ in range(9):
            budget.note_request()
        assert not budget.allow_retry()  # 0.9 < 1.0
        budget.note_request()
        assert budget.allow_retry()

    def test_amplification_is_bounded_under_total_failure(self):
        # 100 real requests with ratio 0.2 fund at most reserve + 20
        # retries -- not max_attempts * 100.
        budget = RetryBudget(ratio=0.2, reserve=5.0)
        retries = 0
        for _ in range(100):
            budget.note_request()
            while budget.allow_retry():
                retries += 1
        assert retries <= 5 + 0.2 * 100 + 1

    def test_balance_caps(self):
        budget = RetryBudget(ratio=1.0, reserve=0.0, cap=2.0)
        for _ in range(50):
            budget.note_request()
        assert budget.stats()["balance"] == 2.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="ratio"):
            RetryBudget(ratio=-0.1)
        with pytest.raises(ValueError, match="reserve"):
            RetryBudget(reserve=10.0, cap=5.0)


class TestAdmissionController:
    def test_unbounded_by_default(self):
        admission = AdmissionController(clock=FakeClock())
        with admission.admit(cost=10_000):
            pass
        assert admission.stats()["admitted"] == 10_000

    def test_queue_bound_sheds_with_reason(self):
        admission = AdmissionController(max_pending=2, clock=FakeClock())
        with admission.admit(cost=2):
            with pytest.raises(LoadShedError) as caught:
                with admission.admit():
                    pass
        assert caught.value.reason == "queue"
        assert admission.stats()["shed"] == {"queue": 1, "quota": 0}

    def test_pending_released_on_exit_and_on_error(self):
        admission = AdmissionController(max_pending=1, clock=FakeClock())
        with pytest.raises(RuntimeError, match="boom"):
            with admission.admit():
                raise RuntimeError("boom")
        with admission.admit():  # the failed request's cost was released
            pass
        assert admission.pending == 0

    def test_quota_sheds_per_source(self):
        clock = FakeClock()
        admission = AdmissionController(quota_qps=1.0, clock=clock)
        for _ in range(2):
            with admission.admit(source="a"):
                pass
        with pytest.raises(LoadShedError) as caught:
            with admission.admit(source="a"):
                pass
        assert caught.value.reason == "quota"
        assert caught.value.source == "a"
        with admission.admit(source="b"):  # separate bucket
            pass
        clock.advance(1.0)
        with admission.admit(source="a"):  # refilled
            pass

    def test_unlabelled_requests_share_the_default_bucket(self):
        # A rate of 0.5/s makes the derived burst max(1, 2 * 0.5) = 1.
        admission = AdmissionController(quota_qps=0.5, clock=FakeClock())
        with admission.admit():
            pass
        with pytest.raises(LoadShedError) as caught:
            with admission.admit(source=None):
                pass
        assert caught.value.source == DEFAULT_SOURCE

    def test_queue_shed_does_not_charge_quota(self):
        admission = AdmissionController(
            max_pending=1, quota_qps=1.0, clock=FakeClock()
        )
        with admission.admit(source="a"):
            with pytest.raises(LoadShedError):
                with admission.admit(source="a"):
                    pass
        # The queue rejection above must not have drained a's bucket:
        # exactly one of the two burst tokens remains.
        with admission.admit(source="a"):
            pass
        with pytest.raises(LoadShedError) as caught:
            with admission.admit(source="a"):
                pass
        assert caught.value.reason == "quota"

    def test_source_buckets_are_lru_capped(self):
        admission = AdmissionController(quota_qps=1_000_000.0, clock=FakeClock())
        for i in range(MAX_TRACKED_SOURCES + 50):
            with admission.admit(source=f"s{i}"):
                pass
        assert admission.stats()["sources"] == MAX_TRACKED_SOURCES

    def test_burst_defaults_to_twice_qps(self):
        admission = AdmissionController(quota_qps=4.0, clock=FakeClock())
        assert admission.quota_burst == 8.0

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_pending": 0}, {"quota_qps": 0.0}, {"quota_qps": -1.0}],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AdmissionController(**kwargs)

    def test_counters_reach_the_recorder(self):
        from repro.obs import Recorder

        recorder = Recorder()
        admission = AdmissionController(
            max_pending=1, clock=FakeClock(), recorder=recorder
        )
        with admission.admit():
            with pytest.raises(LoadShedError):
                with admission.admit():
                    pass
        counters = recorder.counters()
        assert counters["admission.admitted"] == 1
        assert counters["admission.shed.queue"] == 1
