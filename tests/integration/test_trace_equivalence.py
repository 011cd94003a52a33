"""Distributed-trace equivalence: a ``process`` trace equals a ``serial`` one.

The tentpole property of cross-process trace propagation: running the
stage-parallel pipeline with the same partitioning on different
backends must produce *structurally identical* traces -- same span
names at the same depths, same worker-side kernel-dispatch counter
totals -- because every partition attempt records into a child recorder
inside the worker and the driver merges the snapshot back.  Before
merging existed, the ``process`` backend silently dropped all
worker-side telemetry.
"""

import json

import pytest

from repro.core.config import MinoanERConfig
from repro.obs import Recorder, to_json, use_recorder
from repro.parallel.context import ParallelContext
from repro.parallel.pipeline import ParallelMinoanER
from repro.resilience import RetryPolicy, parse_chaos, use_faults


def traced_resolve(pair, backend, chaos=None, failure_mode="fail_fast"):
    recorder = Recorder(trace_id="trace-equivalence")
    config = MinoanERConfig(failure_mode=failure_mode)
    policy = (
        RetryPolicy(max_attempts=4, base_delay_s=0.0)
        if failure_mode != "fail_fast"
        else None
    )
    plan = parse_chaos(chaos) if chaos else None
    with use_recorder(recorder):
        with ParallelContext(
            num_workers=2,
            backend=backend,
            failure_mode=failure_mode,
            retry_policy=policy,
        ) as context:
            pipeline = ParallelMinoanER(config, context)
            if plan is not None:
                with use_faults(plan):
                    result = pipeline.resolve(pair.kb1, pair.kb2)
            else:
                result = pipeline.resolve(pair.kb1, pair.kb2)
    return recorder, result


def span_shape(recorder):
    """The trace's structure, stripped of ids and timings."""
    return sorted((span.name, span.depth) for span in recorder.spans())


def kernel_counters(recorder):
    return {
        name: value
        for name, value in recorder.counters().items()
        if name.startswith("kernels.dispatch.")
    }


@pytest.mark.parametrize("backend", ["thread", "process"])
class TestBackendTraceEquivalence:
    def test_span_shapes_identical_to_serial(self, mini_pair, backend):
        serial, _ = traced_resolve(mini_pair, "serial")
        parallel, _ = traced_resolve(mini_pair, backend)
        assert span_shape(parallel) == span_shape(serial)

    def test_kernel_dispatch_totals_identical_to_serial(self, mini_pair, backend):
        serial, serial_result = traced_resolve(mini_pair, "serial")
        parallel, parallel_result = traced_resolve(mini_pair, backend)
        assert kernel_counters(serial), "serial run recorded no dispatches"
        assert kernel_counters(parallel) == kernel_counters(serial)
        assert parallel_result.matches == serial_result.matches

    def test_worker_spans_parented_under_partition_spans(self, mini_pair, backend):
        recorder, _ = traced_resolve(mini_pair, backend)
        spans = recorder.spans()
        by_id = {span.span_id: span for span in spans}
        workers = [span for span in spans if span.name == "worker"]
        assert workers, "no worker spans were merged back"
        for span in workers:
            parent = by_id[span.parent_id]
            assert ":partition-" in parent.name
            assert isinstance(span.attributes.get("pid"), int)
            # Rebasing: the worker sits on the driver's time axis, at
            # or after its partition span's start.
            assert span.start >= parent.start


class TestProcessBackendSpecifics:
    def test_process_workers_report_foreign_pids(self, mini_pair):
        import os

        recorder, _ = traced_resolve(mini_pair, "process")
        pids = {
            span.attributes["pid"]
            for span in recorder.spans()
            if span.name == "worker"
        }
        assert pids, "no worker spans"
        assert os.getpid() not in pids

    def test_trace_exports_one_json_document(self, mini_pair):
        recorder, _ = traced_resolve(mini_pair, "process")
        payload = json.loads(to_json(recorder))
        assert payload["trace_id"] == "trace-equivalence"
        names = {span["name"] for span in payload["spans"]}
        assert "worker" in names and "resolve" in names
        assert any(
            name.startswith("kernels.dispatch.") for name in payload["counters"]
        )


class TestChaosWithMerging:
    """Retried partitions must not double-count worker telemetry."""

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_chaos_plus_retry_matches_clean_totals(self, mini_pair, backend):
        clean, clean_result = traced_resolve(mini_pair, backend)
        chaotic, chaotic_result = traced_resolve(
            mini_pair,
            backend,
            chaos="stage:graph:beta=error*2",
            failure_mode="retry",
        )
        assert chaotic_result.matches == clean_result.matches
        assert chaotic.counter_value("retry.attempts") == 2.0
        # Only successful attempts merge, so worker-side counters match
        # the clean run exactly despite the two extra attempts.
        assert kernel_counters(chaotic) == kernel_counters(clean)
        assert span_shape(chaotic) == span_shape(clean)
