"""Failure handling in ParallelContext and the stage-parallel pipeline."""

import pytest

from repro.core.config import MinoanERConfig
from repro.core.pipeline import MinoanER
from repro.obs import Recorder, use_recorder
from repro.parallel.context import ParallelContext
from repro.parallel.pipeline import ParallelMinoanER
from repro.resilience import (
    FaultInjected,
    RetryPolicy,
    parse_chaos,
    use_faults,
)


def double_chunk(chunk):
    return [value * 2 for value in chunk]


def reject_negatives(chunk):
    if any(value < 0 for value in chunk):
        raise ValueError("negative input")
    return list(chunk)


def fast_policy(max_attempts: int = 3) -> RetryPolicy:
    return RetryPolicy(max_attempts=max_attempts, base_delay_s=0.0, jitter_ratio=0.0)


class TestRunStageRetry:
    @pytest.mark.parametrize("backend,workers", [("serial", 1), ("thread", 2)])
    def test_transient_faults_recovered(self, backend, workers):
        plan = parse_chaos("stage:double=error*2")
        recorder = Recorder()
        with ParallelContext(
            num_workers=workers,
            backend=backend,
            failure_mode="retry",
            retry_policy=fast_policy(),
        ) as context:
            with use_recorder(recorder), use_faults(plan):
                results = context.run_stage(
                    "double", list(range(6)), double_chunk, partitions=3
                )
        assert sorted(value for chunk in results for value in chunk) == [
            0, 2, 4, 6, 8, 10,
        ]
        (record,) = context.stage_log
        assert record.retries == 2
        assert record.skipped == ()
        assert not record.failed
        assert recorder.counter_value("retry.attempts") == 2
        assert plan.total_fired() == 2

    def test_exhausted_retry_budget_fails_the_stage(self):
        plan = parse_chaos("stage:double=error*5")
        with ParallelContext(
            failure_mode="retry", retry_policy=fast_policy(max_attempts=2)
        ) as context:
            with use_faults(plan), pytest.raises(FaultInjected):
                context.run_stage("double", list(range(4)), double_chunk, partitions=2)
        (record,) = context.stage_log
        assert record.failed
        assert record.retries == 1

    def test_fail_fast_propagates_the_first_fault(self):
        plan = parse_chaos("stage:double=error*1")
        with ParallelContext() as context:  # fail_fast default
            with use_faults(plan), pytest.raises(FaultInjected):
                context.run_stage("double", list(range(4)), double_chunk, partitions=2)
        (record,) = context.stage_log
        assert record.failed
        assert record.retries == 0


class TestRunStageDegrade:
    def test_exhausted_partitions_are_skipped_and_recorded(self):
        # Serial draws lazily per attempt: budget of 4 faults at 2
        # attempts per partition exhausts partitions 0 and 1; partition
        # 2 survives untouched.
        plan = parse_chaos("stage:double=error*4")
        recorder = Recorder()
        with ParallelContext(
            failure_mode="degrade", retry_policy=fast_policy(max_attempts=2)
        ) as context:
            with use_recorder(recorder), use_faults(plan):
                results = context.run_stage(
                    "double", list(range(6)), double_chunk, partitions=3
                )
        assert results == [[8, 10]]  # only partition 2's chunk [4, 5]
        (record,) = context.stage_log
        assert record.skipped == (0, 1)
        assert record.retries == 2
        assert not record.failed
        assert recorder.counter_value("stage.skipped") == 2
        assert recorder.counter_value("retry.attempts") == 2

    def test_thread_backend_draws_at_submission_deterministically(self):
        # The pooled backends draw one fault per *submission*, in
        # partition order: the first three faults land on the initial
        # submissions of partitions 0-2, the fourth on partition 0's
        # retry, which exhausts only partition 0.  Deterministic, just a
        # different (documented) draw order than serial's lazy draws.
        plan = parse_chaos("stage:double=error*4")
        with ParallelContext(
            num_workers=2,
            backend="thread",
            failure_mode="degrade",
            retry_policy=fast_policy(max_attempts=2),
        ) as context:
            with use_faults(plan):
                results = context.run_stage(
                    "double", list(range(6)), double_chunk, partitions=3
                )
        assert results == [[4, 6], [8, 10]]
        (record,) = context.stage_log
        assert record.skipped == (0,)
        assert record.retries == 3
        assert plan.exhausted()

    def test_non_retryable_error_skips_without_retrying(self):
        recorder = Recorder()
        with ParallelContext(
            failure_mode="degrade", retry_policy=fast_policy()
        ) as context:
            with use_recorder(recorder):
                results = context.run_stage(
                    "filter", [1, 2, -3, 4], reject_negatives, partitions=4
                )
        assert results == [[1], [2], [4]]
        (record,) = context.stage_log
        assert record.skipped == (2,)
        assert record.retries == 0
        assert recorder.counter_value("retry.attempts") == 0

    def test_degrade_without_policy_skips_on_first_failure(self):
        plan = parse_chaos("stage:double=error*1")
        with ParallelContext(failure_mode="degrade") as context:
            with use_faults(plan):
                results = context.run_stage(
                    "double", [1, 2], double_chunk, partitions=2
                )
        assert results == [[4]]
        assert context.stage_log[0].skipped == (0,)


class TestLifecycle:
    def test_context_manager_shuts_down_the_pool(self):
        with ParallelContext(num_workers=2, backend="thread") as context:
            assert context._executor is not None
        assert context._executor is None

    def test_close_is_idempotent(self):
        context = ParallelContext(num_workers=2, backend="thread")
        context.close()
        context.close()
        assert context._executor is None

    def test_invalid_failure_mode_rejected(self):
        with pytest.raises(ValueError, match="failure_mode"):
            ParallelContext(failure_mode="explode")

    def test_pipeline_owns_and_closes_a_self_made_context(self):
        config = MinoanERConfig(failure_mode="retry")
        with ParallelMinoanER(config) as pipeline:
            assert pipeline.context.failure_mode == "retry"
            assert pipeline.context.retry_policy is not None
        # Self-created contexts are serial (no pool), so close() is
        # observable only through idempotence; a borrowed context must
        # survive the pipeline's close.
        with ParallelContext(num_workers=2, backend="thread") as borrowed:
            ParallelMinoanER(context=borrowed).close()
            assert borrowed._executor is not None


class TestPipelineFailureModes:
    def test_retry_recovers_bit_identically(self, mini_pair):
        # Partitions own node ranges and never sum across each other,
        # so the bit-identity baseline is the serial run itself; a clean
        # run of the same parallel shape must agree with both.
        serial = MinoanER().resolve(mini_pair.kb1, mini_pair.kb2)
        with ParallelContext(num_workers=2, backend="thread") as context:
            clean = ParallelMinoanER(context=context).resolve(
                mini_pair.kb1, mini_pair.kb2
            )
        plan = parse_chaos("stage:*=error*2")
        recorder = Recorder()
        with ParallelContext(
            num_workers=2,
            backend="thread",
            failure_mode="retry",
            retry_policy=fast_policy(),
        ) as context:
            with use_recorder(recorder), use_faults(plan):
                result = ParallelMinoanER(context=context).resolve(
                    mini_pair.kb1, mini_pair.kb2
                )
        assert plan.total_fired() == 2
        assert recorder.counter_value("retry.attempts") == 2
        assert not result.is_degraded
        assert result.matches == serial.matches
        assert result.matching.scores == serial.matching.scores
        assert result.matches == clean.matches
        assert result.matching.rule_of == clean.matching.rule_of
        assert result.matching.scores == clean.matching.scores

    def test_degrade_names_the_skipped_partitions(self, mini_pair):
        plan = parse_chaos("stage:graph:beta=error*4")
        recorder = Recorder()
        with ParallelContext(
            num_workers=2,
            backend="thread",
            failure_mode="degrade",
            retry_policy=fast_policy(max_attempts=1),
        ) as context:
            with use_recorder(recorder), use_faults(plan):
                result = ParallelMinoanER(context=context).resolve(
                    mini_pair.kb1, mini_pair.kb2
                )
        assert result.is_degraded
        assert set(result.degraded) == {"graph:beta"}
        skipped = result.degraded["graph:beta"]
        assert len(skipped) == 4
        assert recorder.counter_value("stage.skipped") == 4
        beta_record = next(
            record for record in context.stage_log if record.name == "graph:beta"
        )
        assert beta_record.skipped == skipped

    def test_fail_fast_pipeline_propagates(self, mini_pair):
        plan = parse_chaos("stage:graph:beta=error*1")
        with ParallelContext(num_workers=2, backend="thread") as context:
            with use_faults(plan), pytest.raises(FaultInjected):
                ParallelMinoanER(context=context).resolve(
                    mini_pair.kb1, mini_pair.kb2
                )
