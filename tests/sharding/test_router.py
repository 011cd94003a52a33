"""Sharded serving is bit-identical to the single-process engine.

The property sweep runs inline replicas (wire-faithful JSON round
trips, no subprocess overhead) over random shard counts in 1..8 on all
four calibrated benchmark profiles, comparing every decision field the
stream carries -- ids, scores, rules, degraded flags -- on both the
single-query and the batch path, over built and loaded shards and across the
config variants that change the merge shape (adaptive cut, candidate
cap, reciprocity off).
"""

import queue
import random
import threading

import pytest

from repro.core.config import MinoanERConfig
from repro.datasets.profiles import scaled_profile
from repro.resilience.faults import parse_chaos, use_faults
from repro.serving import MatchEngine, ResolutionIndex
from repro.sharding import InlineReplica, ShardFailure, ShardPlanner, ShardRouter, ShardWorker
from repro.sharding.router import DEFAULT_HEDGE_DELAY_S, HEDGE_MIN_SAMPLES

PROFILES = [
    ("restaurant", 0.3),
    ("rexa_dblp", 0.15),
    ("bbc_dbpedia", 0.2),
    ("yago_imdb", 0.15),
]


def inline_router(index, config, shards):
    replica_sets = [
        [InlineReplica(ShardWorker(MatchEngine(shard, config)))]
        for shard in ShardPlanner(shards).plan(index)
    ]
    return ShardRouter(index, replica_sets, config)


def decision_fields(decision):
    return (
        decision.query_uri,
        decision.kb2_id,
        decision.kb2_uri,
        decision.rule,
        decision.score,
        decision.candidates,
        decision.degraded,
    )


def assert_sharded_identical(pair, config, shards):
    index = ResolutionIndex.build(pair.kb2, config)
    engine = MatchEngine(index, config)
    batch = list(pair.kb1)
    router = inline_router(index, config, shards)
    try:
        expected_batch = [decision_fields(d) for d in engine.match_batch(batch)]
        actual_batch = [decision_fields(d) for d in router.match_batch(batch)]
        assert actual_batch == expected_batch
        expected_single = [decision_fields(engine.match(e)) for e in batch]
        actual_single = [decision_fields(router.match(e)) for e in batch]
        assert actual_single == expected_single
    finally:
        router.close()


class TestPropertySweep:
    @pytest.mark.parametrize("profile,scale", PROFILES)
    def test_random_shard_counts_all_profiles(self, profile, scale):
        rng = random.Random(f"shards:{profile}")
        counts = sorted({rng.randint(1, 8), rng.randint(1, 8)})
        pair = scaled_profile(profile, scale)
        for shards in counts:
            assert_sharded_identical(pair, MinoanERConfig(), shards)

    def test_every_count_one_through_eight(self, mini_pair):
        for shards in range(1, 9):
            assert_sharded_identical(mini_pair, MinoanERConfig(), shards)

    def test_with_adaptive_cut(self, mini_pair):
        assert_sharded_identical(
            mini_pair, MinoanERConfig(dynamic_pruning=True), 3
        )

    def test_with_candidate_cap(self, mini_pair):
        assert_sharded_identical(
            mini_pair, MinoanERConfig(serving_candidate_cap=5), 3
        )

    def test_without_reciprocity(self, mini_pair):
        assert_sharded_identical(
            mini_pair, MinoanERConfig(use_reciprocity=False), 3
        )

    def test_hard_profile(self, hard_pair):
        assert_sharded_identical(hard_pair, MinoanERConfig(), 4)


class TestMemmappedShards:
    def test_mmap_shards_identical(self, tmp_path):
        pair = scaled_profile("restaurant", 0.3)
        config = MinoanERConfig()
        index = ResolutionIndex.build(pair.kb2, config)
        path = tmp_path / "kb2.idx"
        index.save(path)
        paths = ShardPlanner(3).write(index, path)

        full = ResolutionIndex.load(path)
        replica_sets = [
            [
                InlineReplica(
                    ShardWorker(
                        MatchEngine(ResolutionIndex.load(p), config)
                    )
                )
            ]
            for p in paths
        ]
        router = ShardRouter(full, replica_sets, config)
        engine = MatchEngine(index, config)
        batch = list(pair.kb1)
        try:
            assert [decision_fields(d) for d in router.match_batch(batch)] == [
                decision_fields(d) for d in engine.match_batch(batch)
            ]
            assert [decision_fields(router.match(e)) for e in batch] == [
                decision_fields(engine.match(e)) for e in batch
            ]
        finally:
            router.close()


class _DeadReplica:
    """A replica whose shard is structurally gone (every send fails)."""

    def __init__(self, shard):
        self.shard = shard
        self.breaker = None

    def send(self, op, payload, sink):
        raise ShardFailure(f"shard {self.shard} is gone")

    def cancel(self, rid):
        pass

    def request(self, op, payload=None, timeout=None):
        raise ShardFailure(f"shard {self.shard} is gone")

    def shutdown(self, timeout=None):
        pass

    def kill(self):
        pass


class TestChaosDegrade:
    """One shard killed in degrade mode: degraded-but-valid decisions."""

    KILLED = 1

    def _routers(self, index, config):
        shards = ShardPlanner(3).plan(index)
        chaos_router = ShardRouter(
            index,
            [
                [InlineReplica(ShardWorker(MatchEngine(shard, config)))]
                for shard in shards
            ],
            config,
        )
        structural_sets = [
            [InlineReplica(ShardWorker(MatchEngine(shard, config)))]
            for shard in shards
        ]
        structural_sets[self.KILLED] = [_DeadReplica(self.KILLED)]
        structural_router = ShardRouter(index, structural_sets, config)
        return chaos_router, structural_router

    def test_chaos_killed_shard_degrades_not_aborts(self, mini_pair):
        config = MinoanERConfig(failure_mode="degrade", breaker_threshold=1000)
        index = ResolutionIndex.build(mini_pair.kb2, config)
        batch = list(mini_pair.kb1)
        chaos_router, structural_router = self._routers(index, config)
        try:
            with use_faults(parse_chaos(f"shard:request:{self.KILLED}=error")):
                chaos_batch = chaos_router.match_batch(batch)
                chaos_single = [chaos_router.match(e) for e in batch]
            assert all(d.degraded for d in chaos_batch)
            assert all(d.degraded for d in chaos_single)

            # Chaos-killed and structurally-absent shards degrade to the
            # exact same decisions: the merge only sees survivors.
            expected_batch = structural_router.match_batch(batch)
            assert [decision_fields(d) for d in chaos_batch] == [
                decision_fields(d) for d in expected_batch
            ]
            expected_single = [structural_router.match(e) for e in batch]
            assert [decision_fields(d) for d in chaos_single] == [
                decision_fields(d) for d in expected_single
            ]
        finally:
            chaos_router.close()
            structural_router.close()

    def test_on_shard_error_fires_once_per_transition(self, mini_pair):
        config = MinoanERConfig(failure_mode="degrade", breaker_threshold=1000)
        index = ResolutionIndex.build(mini_pair.kb2, config)
        batch = list(mini_pair.kb1)[:10]
        errors = []
        shards = ShardPlanner(2).plan(index)
        router = ShardRouter(
            index,
            [
                [InlineReplica(ShardWorker(MatchEngine(shard, config)))]
                for shard in shards
            ],
            config,
            on_shard_error=lambda shard, error: errors.append(shard),
        )
        try:
            with use_faults(parse_chaos("shard:request:0=error")):
                for entity in batch:
                    router.match(entity)
            assert errors == [0], "hook fires once per healthy->down transition"
            # Recovery clears the down set; a later failure fires again.
            router.match_batch(batch[:2])
            assert router.stats()["sharding"]["down"] == []
            with use_faults(parse_chaos("shard:request:0=error")):
                router.match(batch[0])
            assert errors == [0, 0]
        finally:
            router.close()

    def test_fail_fast_propagates(self, mini_pair):
        config = MinoanERConfig(breaker_threshold=1000)  # fail_fast default
        index = ResolutionIndex.build(mini_pair.kb2, config)
        router = inline_router(index, config, 2)
        try:
            with use_faults(parse_chaos("shard:request:0=error")):
                with pytest.raises(ShardFailure):
                    router.match_batch(list(mini_pair.kb1)[:2])
        finally:
            router.close()

    def test_retry_recovers_from_transient_fault(self, mini_pair):
        config = MinoanERConfig(
            failure_mode="retry", retry_base_delay_s=0.0, breaker_threshold=1000
        )
        index = ResolutionIndex.build(mini_pair.kb2, config)
        engine = MatchEngine(index, config)
        batch = list(mini_pair.kb1)[:5]
        router = inline_router(index, config, 2)
        try:
            # A one-shot fault: the first attempt fails, the retry lands.
            with use_faults(parse_chaos("shard:request:0=error*1")):
                decisions = router.match_batch(batch)
            assert not any(d.degraded for d in decisions)
            assert [decision_fields(d) for d in decisions] == [
                decision_fields(d) for d in engine.match_batch(batch)
            ]
        finally:
            router.close()


class _CorruptBatchWorker(ShardWorker):
    """A worker whose ``batch`` replies arrive with a packed field broken."""

    def handle(self, request):
        response = super().handle(request)
        if request.get("op") == "batch" and response.get("ok"):
            response["row_ids"] = "@@ not base64 @@"
        return response


class TestMalformedBatchReplies:
    """A packed reply the router cannot validate is the replica's fault:
    it counts against the breaker and fails over or degrades, never
    reaching the merge."""

    CORRUPT = 1

    def _router(self, index, config, replicas=1, corrupt=_CorruptBatchWorker):
        sets = []
        for number, shard in enumerate(ShardPlanner(3).plan(index)):
            worker = corrupt if number == self.CORRUPT else ShardWorker
            group = [InlineReplica(worker(MatchEngine(shard, config)))]
            group += [
                InlineReplica(ShardWorker(MatchEngine(shard, config)))
                for _ in range(replicas - 1)
            ]
            sets.append(group)
        return ShardRouter(index, sets, config)

    def test_fail_fast_raises_shard_failure(self, mini_pair):
        config = MinoanERConfig(breaker_threshold=1000)
        index = ResolutionIndex.build(mini_pair.kb2, config)
        router = self._router(index, config)
        try:
            with pytest.raises(ShardFailure, match="not base64"):
                router.match_batch(list(mini_pair.kb1)[:4])
            assert router.stats()["sharding"]["failures"] == 1
        finally:
            router.close()

    @pytest.mark.parametrize(
        "corrupt,message",
        [
            (lambda reply: reply.pop("col_nodes"), "'col_nodes' is not an array section"),
            (lambda reply: reply["row_ids"].__setitem__(0, 10**6), "row_ids: id outside"),
            (lambda reply: reply["row_lengths"].__setitem__(0, -1), "row_ids"),
            (lambda reply: reply["col_nodes"].__setitem__(0, 10**6), "col_nodes: id outside"),
            (lambda reply: reply.update(row_scores=reply["row_scores"][:-1]), "row_scores"),
            (lambda reply: reply.update(col_ids=reply["col_ids"].astype(float)), "col_ids"),
        ],
        ids=["missing section", "id out of range", "negative length", "node out of range",
             "short scores", "float ids"],
    )
    def test_every_malformed_reply_fails_that_replica(self, mini_pair, corrupt, message):
        class Corrupt(ShardWorker):
            def handle(self, request):
                response = super().handle(request)
                if request.get("op") == "batch" and response.get("ok"):
                    corrupt(response)
                return response

        config = MinoanERConfig(breaker_threshold=1000)
        index = ResolutionIndex.build(mini_pair.kb2, config)
        router = self._router(index, config, corrupt=Corrupt)
        try:
            with pytest.raises(ShardFailure, match=f"shard {self.CORRUPT}: .*{message}"):
                router.match_batch(list(mini_pair.kb1)[:4])
            assert router.stats()["sharding"]["failures"] == 1
        finally:
            router.close()

    def test_degrade_equals_an_absent_shard(self, mini_pair):
        config = MinoanERConfig(failure_mode="degrade", breaker_threshold=1000)
        index = ResolutionIndex.build(mini_pair.kb2, config)
        batch = list(mini_pair.kb1)
        router = self._router(index, config)
        absent_sets = [
            [InlineReplica(ShardWorker(MatchEngine(shard, config)))]
            for shard in ShardPlanner(3).plan(index)
        ]
        absent_sets[self.CORRUPT] = [_DeadReplica(self.CORRUPT)]
        absent = ShardRouter(index, absent_sets, config)
        try:
            decisions = router.match_batch(batch)
            assert all(d.degraded for d in decisions)
            assert [decision_fields(d) for d in decisions] == [
                decision_fields(d) for d in absent.match_batch(batch)
            ]
            # Singles never touch the batch decoder: full evidence.
            assert not router.match(batch[0]).degraded
        finally:
            router.close()
            absent.close()

    def test_breaker_opens_and_a_sibling_replica_answers(self, mini_pair):
        config = MinoanERConfig(breaker_threshold=2)
        index = ResolutionIndex.build(mini_pair.kb2, config)
        engine = MatchEngine(index, config)
        batch = list(mini_pair.kb1)[:6]
        router = self._router(index, config, replicas=2)
        try:
            for _ in range(4):
                decisions = router.match_batch(batch)
                assert [decision_fields(d) for d in decisions] == [
                    decision_fields(d) for d in engine.match_batch(batch)
                ]
            corrupt = router._replicas[self.CORRUPT][0]
            assert corrupt.breaker.state == "open"
            assert router.stats()["sharding"]["failures"] == 2
        finally:
            router.close()


class _SlowBatchReplica(InlineReplica):
    """Answers singles at once and batches after ``DELAY_S``, delivered
    from a timer thread the way a worker pipe delivers them."""

    DELAY_S = 0.02

    def send(self, op, payload, sink):
        if op != "batch":
            return super().send(op, payload, sink)
        held = queue.Queue()
        rid = super().send(op, payload, held)
        threading.Timer(self.DELAY_S, lambda: sink.put(held.get_nowait())).start()
        return rid


class TestHedgeDelayPerOp:
    def test_batch_after_fast_singles_does_not_hedge(self, mini_pair):
        """Sub-millisecond singles must not set the hedge delay for a
        batch: with no batch latencies seen yet, a batch waits the
        default delay, so a 20 ms batch fires no backup."""
        config = MinoanERConfig()
        index = ResolutionIndex.build(mini_pair.kb2, config)
        (shard,) = ShardPlanner(1).plan(index)
        replicas = [_SlowBatchReplica(ShardWorker(MatchEngine(shard, config))) for _ in range(2)]
        router = ShardRouter(index, [replicas], config)
        entities = list(mini_pair.kb1)
        try:
            for entity in entities[: 2 * HEDGE_MIN_SAMPLES]:
                router.match(entity)
            assert router.stats()["sharding"]["requests"] >= HEDGE_MIN_SAMPLES
            assert _SlowBatchReplica.DELAY_S < DEFAULT_HEDGE_DELAY_S
            router.match_batch(entities[:3])
            assert router.stats()["sharding"]["hedge_fired"] == 0
        finally:
            router.close()


class TestRouterBehaviour:
    def test_stats_carry_sharding_section(self, mini_pair):
        config = MinoanERConfig()
        index = ResolutionIndex.build(mini_pair.kb2, config)
        router = inline_router(index, config, 2)
        try:
            router.match(list(mini_pair.kb1)[0])
            section = router.stats()["sharding"]
            assert section["shards"] == 2
            assert section["requests"] >= 2
            assert section["failures"] == 0
        finally:
            router.close()

    def test_close_merges_worker_traces(self, mini_pair):
        config = MinoanERConfig()
        index = ResolutionIndex.build(mini_pair.kb2, config)
        router = inline_router(index, config, 2)
        router.match(list(mini_pair.kb1)[0])
        router.close()
        assert "shard.worker" in router.recorder.span_names()

    def test_single_query_caching_still_works(self, mini_pair):
        config = MinoanERConfig()
        index = ResolutionIndex.build(mini_pair.kb2, config)
        router = inline_router(index, config, 2)
        try:
            entity = list(mini_pair.kb1)[0]
            first = router.match(entity)
            second = router.match(entity)
            assert second.cached and not first.cached
            assert decision_fields(first) == decision_fields(second)
        finally:
            router.close()


def host_cpus(monkeypatch, cpus: int) -> None:
    """Pin the CPU count the router picks its fan-out from: one CPU
    scatters sequentially on the query thread, more use the pool."""
    monkeypatch.setattr("repro.sharding.router._host_cpus", lambda: cpus)


class TestScatterModes:
    """The fan-out path only changes *how* requests go out, never the answer."""

    def test_sequential_and_pool_identical(self, mini_pair, monkeypatch):
        config = MinoanERConfig()
        index = ResolutionIndex.build(mini_pair.kb2, config)
        engine = MatchEngine(index, config)
        batch = list(mini_pair.kb1)
        expected_single = [decision_fields(engine.match(e)) for e in batch]
        expected_batch = [decision_fields(d) for d in engine.match_batch(batch)]
        for cpus in (1, 2):
            host_cpus(monkeypatch, cpus)
            router = inline_router(index, config, 3)
            try:
                assert [
                    decision_fields(router.match(e)) for e in batch
                ] == expected_single
                assert [
                    decision_fields(d) for d in router.match_batch(batch)
                ] == expected_batch
            finally:
                router.close()

    def test_sequential_records_per_shard_timings(self, mini_pair, monkeypatch):
        host_cpus(monkeypatch, 1)
        config = MinoanERConfig()
        index = ResolutionIndex.build(mini_pair.kb2, config)
        router = inline_router(index, config, 3)
        try:
            router.match(list(mini_pair.kb1)[0])
            assert router.last_shard_ms is not None
            assert len(router.last_shard_ms) == 3
            assert all(ms >= 0.0 for ms in router.last_shard_ms)
            # Workers self-time their compute into the response.
            assert router.last_service_ms is not None
            assert all(s is not None and s >= 0.0 for s in router.last_service_ms)
        finally:
            router.close()

    def test_pool_does_not_record_round_trips(self, mini_pair, monkeypatch):
        host_cpus(monkeypatch, 2)
        config = MinoanERConfig()
        index = ResolutionIndex.build(mini_pair.kb2, config)
        router = inline_router(index, config, 2)
        try:
            router.match(list(mini_pair.kb1)[0])
            # Overlapping round trips have no meaningful per-shard wall
            # time; service times still arrive with each response.
            assert router.last_shard_ms is None
            assert router.last_service_ms is not None
        finally:
            router.close()


class TestTokenShipping:
    """The router ships the purged token list; workers must derive the
    exact same evidence from it as from the entity itself."""

    def test_tokens_path_equals_entity_path(self, mini_pair):
        config = MinoanERConfig()
        index = ResolutionIndex.build(mini_pair.kb2, config)
        engine = MatchEngine(index, config)
        for entity in list(mini_pair.kb1)[:20]:
            tokens = engine.value_tokens(entity)
            assert engine.match_evidence(entity) == engine.match_evidence(
                None, tokens=tokens
            )

    def test_worker_accepts_token_requests(self, mini_pair):
        config = MinoanERConfig()
        index = ResolutionIndex.build(mini_pair.kb2, config)
        engine = MatchEngine(index, config)
        worker = ShardWorker(MatchEngine(index, config))
        entity = list(mini_pair.kb1)[0]
        response = worker.handle(
            {
                "id": 1,
                "op": "match",
                "tokens": engine.value_tokens(entity),
            }
        )
        assert response["ok"]
        assert response["service_ms"] >= 0.0
        evidence = engine.match_evidence(entity)
        assert response["row"] == evidence["row"]
        assert response["mins"] == evidence["mins"]
        assert response["count"] == evidence["count"]
