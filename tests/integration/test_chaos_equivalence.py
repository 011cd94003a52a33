"""The headline resilience property: chaos + retry == clean run, bit for bit.

Transient faults recovered by the retry policy recompute the same work
from the same immutable inputs, so a chaotic run must be *bit-identical*
to a clean one -- same match pairs, same producing rules, same float
scores -- on every profile.  Anything less means the retry path has
hidden state.
"""

import pytest

from repro.core.config import MinoanERConfig
from repro.core.pipeline import MinoanER
from repro.obs import Recorder, use_recorder
from repro.parallel.context import ParallelContext
from repro.parallel.pipeline import ParallelMinoanER
from repro.resilience import RetryPolicy, parse_chaos, use_faults

CHAOS_SPECS = [
    "stage:*=error*2",
    "stage:statistics=error*1,stage:token_blocking=error*1",
    "stage:*=delay:0.001*3",
]


@pytest.fixture(autouse=True)
def no_retry_backoff(monkeypatch):
    """Retried phases back off without sleeping: bits, not time, are tested."""
    monkeypatch.setattr("repro.core.pipeline.RETRY_BASE_DELAY_S", 0.0)


def retry_config() -> MinoanERConfig:
    return MinoanERConfig(failure_mode="retry")


def assert_identical(chaotic, clean) -> None:
    assert chaotic.matches == clean.matches
    assert chaotic.matching.rule_of == clean.matching.rule_of
    assert chaotic.matching.scores == clean.matching.scores
    assert not chaotic.is_degraded


@pytest.fixture(params=["mini", "hard"])
def pair(request, mini_pair, hard_pair):
    return mini_pair if request.param == "mini" else hard_pair


class TestSerialPipeline:
    def test_transient_faults_plus_retry_is_bit_identical(self, pair):
        clean = MinoanER().resolve(pair.kb1, pair.kb2)
        plan = parse_chaos("stage:*=error*2")
        recorder = Recorder()
        with use_recorder(recorder), use_faults(plan):
            chaotic = MinoanER(retry_config()).resolve(pair.kb1, pair.kb2)
        assert plan.total_fired() == 2  # the chaos really happened
        assert recorder.counter_value("retry.attempts") == 2
        assert_identical(chaotic, clean)

    @pytest.mark.parametrize("spec", CHAOS_SPECS)
    def test_identical_across_chaos_schedules(self, mini_pair, spec):
        clean = MinoanER().resolve(mini_pair.kb1, mini_pair.kb2)
        plan = parse_chaos(spec)
        with use_faults(plan):
            chaotic = MinoanER(retry_config()).resolve(
                mini_pair.kb1, mini_pair.kb2
            )
        assert plan.total_fired() >= 1
        assert_identical(chaotic, clean)

    def test_probabilistic_chaos_is_survivable_and_identical(self, mini_pair):
        # A seeded coin per phase, never two faults in a row on the
        # same phase beyond the retry budget: times=2 bounds the total.
        clean = MinoanER().resolve(mini_pair.kb1, mini_pair.kb2)
        plan = parse_chaos("stage:*=error*2@0.5", seed=3)
        with use_faults(plan):
            chaotic = MinoanER(retry_config()).resolve(
                mini_pair.kb1, mini_pair.kb2
            )
        assert_identical(chaotic, clean)


class TestParallelPipeline:
    @pytest.mark.parametrize("backend,workers", [("serial", 1), ("thread", 3)])
    def test_chaotic_parallel_run_equals_clean_parallel_run(
        self, mini_pair, backend, workers
    ):
        with ParallelContext(num_workers=workers, backend=backend) as context:
            clean = ParallelMinoanER(context=context).resolve(
                mini_pair.kb1, mini_pair.kb2
            )
        plan = parse_chaos("stage:*=error*2")
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter_ratio=0.0)
        with ParallelContext(
            num_workers=workers,
            backend=backend,
            failure_mode="retry",
            retry_policy=policy,
        ) as context:
            with use_faults(plan):
                chaotic = ParallelMinoanER(context=context).resolve(
                    mini_pair.kb1, mini_pair.kb2
                )
        assert plan.total_fired() == 2
        assert_identical(chaotic, clean)
        # Serial and parallel agree on the match set either way.
        assert chaotic.matches == MinoanER().resolve(
            mini_pair.kb1, mini_pair.kb2
        ).matches

    def test_partition_level_faults_recovered_on_thread_backend(self, mini_pair):
        with ParallelContext(num_workers=2, backend="thread") as context:
            clean = ParallelMinoanER(context=context).resolve(
                mini_pair.kb1, mini_pair.kb2
            )
        plan = parse_chaos(
            "stage:graph:beta=error*2,stage:match:R2=error*1"
        )
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter_ratio=0.0)
        with ParallelContext(
            num_workers=2,
            backend="thread",
            failure_mode="retry",
            retry_policy=policy,
        ) as context:
            with use_faults(plan):
                chaotic = ParallelMinoanER(context=context).resolve(
                    mini_pair.kb1, mini_pair.kb2
                )
        assert plan.fired().keys() == {"stage:graph:beta", "stage:match:R2"}
        assert_identical(chaotic, clean)
