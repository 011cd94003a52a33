"""LiveShardRouter: the live overlay on the scatter/gather tier.

Same contract as ``tests/serving/test_live.py``, one level up: a
sharded fleet with a router-side delta must answer exactly like a
single cold engine over a full rebuild -- including after a compaction
that re-shards the base and broadcasts ``reload`` to every replica.
"""

import pytest

from repro.core.config import MinoanERConfig
from repro.kb.entity import EntityDescription
from repro.kb.knowledge_base import KnowledgeBase
from repro.serving import MatchEngine, ResolutionIndex
from repro.sharding import (
    InlineReplica,
    LiveShardRouter,
    ShardPlanner,
    ShardWorker,
    shard_paths,
)

CONFIG = MinoanERConfig()


def entity(i: int, word: str | None = None, info: str | None = None):
    word = word or f"alpha{i}"
    return EntityDescription(
        f"http://kb2/e{i}",
        [("name", f"{word} tag{i}"), ("info", info or f"extra{i} blob")],
    )


def build_index(entities):
    return ResolutionIndex.build(KnowledgeBase(list(entities), name="kb2"), CONFIG)


def query(label: str, uri: str = "q"):
    return EntityDescription(uri, [("label", label)])


def live_router(index, shards, **kwargs):
    replica_sets = [
        [InlineReplica(ShardWorker(MatchEngine(shard, CONFIG)))]
        for shard in ShardPlanner(shards).plan(index)
    ]
    return LiveShardRouter(index, replica_sets, CONFIG, **kwargs)


def decision_fields(decision):
    # No ``kb2_id``: overlay ids (base ids + delta slots above n2)
    # legitimately differ from a cold rebuild's renumbering.
    return (
        decision.query_uri,
        decision.kb2_uri,
        decision.rule,
        decision.score,
        decision.candidates,
        decision.degraded,
    )


BASE = [entity(i) for i in range(10)]

PROBES = (
    [query(f"alpha{i} tag{i}", uri=f"q{i}") for i in range(10)]
    + [
        query("zeta99 tag99", uri="qnew"),
        query("beta3 tag3x", uri="qover"),
        query("unmatched nonsense", uri="qmiss"),
    ]
)


def apply_edits(target):
    """delete e5, overwrite e3, add e99 -- via upsert/delete calls."""
    target.delete("http://kb2/e5")
    target.upsert(entity(99, "zeta99"))
    target.upsert(
        EntityDescription(
            "http://kb2/e3", [("name", "beta3 tag3x"), ("info", "changed")]
        )
    )


def final_entities():
    survivors = [entity(i) for i in range(10) if i not in (3, 5)]
    return survivors + [
        entity(99, "zeta99"),
        EntityDescription(
            "http://kb2/e3", [("name", "beta3 tag3x"), ("info", "changed")]
        ),
    ]


class TestLiveShardedEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_single_decisions_equal_cold_rebuild(self, shards):
        router = live_router(build_index(BASE), shards)
        cold = MatchEngine(build_index(final_entities()), CONFIG)
        try:
            apply_edits(router)
            for probe in PROBES:
                assert decision_fields(router.match(probe)) == decision_fields(
                    cold.match(probe)
                ), probe.uri
        finally:
            router.close()

    @pytest.mark.parametrize("shards", [1, 3])
    def test_batch_falls_back_locally_and_matches(self, shards):
        router = live_router(build_index(BASE), shards)
        cold = MatchEngine(build_index(final_entities()), CONFIG)
        try:
            apply_edits(router)
            ours = [decision_fields(d) for d in router.match_batch(PROBES)]
            theirs = [decision_fields(d) for d in cold.match_batch(PROBES)]
            assert ours == theirs
            assert router.recorder.counter_value("shard.local") == 1
        finally:
            router.close()

    def test_frozen_batch_still_scatters(self):
        router = live_router(build_index(BASE), 2)
        try:
            router.match_batch(PROBES[:3])
            assert router.recorder.counter_value("shard.local") == 0
        finally:
            router.close()

    def test_upsert_visible_immediately(self):
        router = live_router(build_index(BASE), 2)
        try:
            miss = router.match(query("zeta99 tag99"))
            assert miss.kb2_uri != "http://kb2/e99"
            router.upsert(entity(99, "zeta99"))
            hit = router.match(query("zeta99 tag99"))
            assert hit.kb2_uri == "http://kb2/e99"
            router.delete("http://kb2/e99")
            gone = router.match(query("zeta99 tag99"))
            assert gone.kb2_uri != "http://kb2/e99"
        finally:
            router.close()

    def test_stats_carry_live_and_sharding_sections(self):
        router = live_router(build_index(BASE), 2)
        try:
            router.upsert(entity(99, "zeta99"))
            stats = router.stats()
            assert stats["live"]["delta_entities"] == 1
            assert stats["live"]["generation"] == router.generation == 1
            assert stats["sharding"]["shards"] == 2
        finally:
            router.close()


class CountingReplica(InlineReplica):
    """An inline replica that counts the requests it is sent, per op."""

    def __init__(self, worker):
        super().__init__(worker)
        self.sent: dict[str, int] = {}

    def send(self, op, payload, sink):
        self.sent[op] = self.sent.get(op, 0) + 1
        return super().send(op, payload, sink)


class TestPendingEditsStayOnTheRouter:
    def test_no_worker_request_until_compaction(self, tmp_path):
        index_path = tmp_path / "kb2.idx"
        base = build_index(BASE)
        base.save(index_path)
        ShardPlanner(2).write(base, index_path)
        replicas = [
            CountingReplica(ShardWorker(MatchEngine(shard, CONFIG)))
            for shard in ShardPlanner(2).plan(base)
        ]
        router = LiveShardRouter(
            base, [[replica] for replica in replicas], CONFIG
        )
        router.index_path = index_path
        cold = MatchEngine(build_index(final_entities()), CONFIG)

        def sent(op):
            return sum(replica.sent.get(op, 0) for replica in replicas)

        try:
            apply_edits(router)
            singles = [decision_fields(router.match(p)) for p in PROBES]
            batch = [decision_fields(d) for d in router.match_batch(PROBES)]
            assert singles == [decision_fields(cold.match(p)) for p in PROBES]
            assert batch == [decision_fields(d) for d in cold.match_batch(PROBES)]
            assert sent("match") == sent("batch") == 0
            assert router.recorder.counter_value("shard.local") == len(PROBES) + 1
            router.compact()
            after = [decision_fields(router.match(p)) for p in PROBES]
            assert after == singles
            assert sent("match") == 2 * len(PROBES)
            assert router.recorder.counter_value("shard.local") == len(PROBES) + 1
        finally:
            router.close()


class TestCompactionSwap:
    def test_compact_reshards_reloads_and_restores_scatter(self, tmp_path):
        index_path = tmp_path / "kb2.idx"
        base = build_index(BASE)
        base.save(index_path)
        for target, shard in zip(
            shard_paths(index_path, 2), ShardPlanner(2).plan(base)
        ):
            shard.save(target)
        router = live_router(base, 2)
        router.index_path = index_path
        cold = MatchEngine(build_index(final_entities()), CONFIG)
        try:
            apply_edits(router)
            before = [decision_fields(router.match(p)) for p in PROBES]
            fresh = router.compact()
            assert not router.index.delta_active
            assert router.swap_count == 1
            assert fresh.n2 == len(final_entities())
            # The shard files on disk were rewritten to the new base.
            for target in shard_paths(index_path, 2):
                info = ResolutionIndex.load(target).shard_info
                assert info["count"] == 2
            after = [decision_fields(router.match(p)) for p in PROBES]
            expected = [decision_fields(cold.match(p)) for p in PROBES]
            assert before == after == expected
            # Batches scatter again now that the delta is gone: only the
            # singles answered before the compaction stayed local.
            router.match_batch(PROBES[:3])
            assert router.recorder.counter_value("shard.local") == len(PROBES)
        finally:
            router.close()

    def test_compact_without_index_path_raises(self):
        router = live_router(build_index(BASE), 2)
        try:
            router.upsert(entity(99, "zeta99"))
            with pytest.raises(ValueError, match="shard files on disk"):
                router.compact()
        finally:
            router.close()

    def test_failed_reload_kills_the_replica(self, tmp_path):
        class FailingReplica(InlineReplica):
            def __init__(self, worker):
                super().__init__(worker)
                self.killed = False

            def request(self, op, payload=None, timeout=30.0):
                if op == "reload":
                    raise RuntimeError("injected reload failure")
                return super().request(op, payload, timeout)

            def kill(self):
                self.killed = True

        index_path = tmp_path / "kb2.idx"
        base = build_index(BASE)
        base.save(index_path)
        shards = ShardPlanner(2).plan(base)
        bad = FailingReplica(ShardWorker(MatchEngine(shards[0], CONFIG)))
        good = InlineReplica(ShardWorker(MatchEngine(shards[1], CONFIG)))
        failures: list[int] = []
        router = LiveShardRouter(
            base,
            [[bad], [good]],
            CONFIG,
            on_shard_error=lambda shard, error: failures.append(shard),
        )
        router.index_path = index_path
        try:
            router.upsert(entity(99, "zeta99"))
            router.compact()
            assert bad.killed
            assert failures == [0]
            assert router.recorder.counter_value("shard.reload_failures") == 1
        finally:
            router.close()


class TestWorkerReloadOp:
    def test_reload_swaps_the_worker_engine(self, tmp_path):
        shards = ShardPlanner(2).plan(build_index(BASE))
        replacement = ShardPlanner(2).plan(build_index(final_entities()))
        path = tmp_path / "kb2.idx.shard0-of-2"
        replacement[0].save(path)
        worker = ShardWorker(MatchEngine(shards[0], CONFIG))
        body = worker.handle({"id": 1, "op": "reload", "path": str(path)})
        assert body["ok"]
        assert body["shard"] == 0
        assert worker.engine.index.shard_info["count"] == 2

    def test_reload_bad_path_reports_error(self):
        shards = ShardPlanner(1).plan(build_index(BASE))
        worker = ShardWorker(MatchEngine(shards[0], CONFIG))
        body = worker.handle({"id": 1, "op": "reload", "path": "/nonexistent.idx"})
        assert not body["ok"]
        assert "error" in body


class TestAllOrNothingCompaction:
    def test_failed_shard_write_changes_no_file(self, tmp_path, monkeypatch):
        # An I/O error on the second temp file (shard 0, after the base):
        # the base and every shard file keep their bytes, no temp file
        # is left, and the live state is as if compaction never ran.
        index_path = tmp_path / "kb2.idx"
        base = build_index(BASE)
        base.save(index_path)
        ShardPlanner(2).write(base, index_path)
        files = [index_path, *shard_paths(index_path, 2)]
        before = {path: path.read_bytes() for path in files}
        router = live_router(base, 2)
        router.index_path = index_path
        try:
            apply_edits(router)
            generation = router.generation
            write_bytes = type(index_path).write_bytes
            writes = []

            def failing_write(path, data):
                writes.append(path)
                if len(writes) == 2:
                    raise OSError(28, "No space left on device")
                return write_bytes(path, data)

            monkeypatch.setattr(type(index_path), "write_bytes", failing_write)
            with pytest.raises(OSError, match="No space left"):
                router.compact()
            monkeypatch.undo()
            assert {path: path.read_bytes() for path in files} == before
            assert not list(tmp_path.glob("*.tmp"))
            assert router.generation == generation
            assert router.index.delta_active
            assert router.swap_count == 0
        finally:
            router.close()
