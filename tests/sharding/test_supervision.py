"""Self-healing shard fleets: SIGKILL, resurrection, equivalence.

The acceptance bar for the supervision layer: a worker killed with
``SIGKILL`` mid-stream -- while hedges fire, breakers trip and a
background compaction swaps the base out from under it -- must leave a
decision stream identical to a serve where nothing ever crashed.
Workers are pure functions of the frozen shard file plus the wire
payload, so a resurrected replica has nothing to "catch up" on; these
tests prove that end to end with real subprocess workers.

Real processes over pipes: slower than the inline suite, so it sticks
to the mini profile and small probe sets.
"""

import os
import signal
import time

import pytest

from repro.core.config import MinoanERConfig
from repro.resilience import ReplicaSupervisor
from repro.serving import MatchEngine, ResolutionIndex
from repro.serving.compaction import CompactionScheduler
from repro.sharding import LiveShardRouter, ShardFailure, ShardPlanner, ShardRouter


def build_sharded(pair, tmp_path, config, shards):
    index = ResolutionIndex.build(pair.kb2, config)
    path = tmp_path / "kb2.idx"
    index.save(path)
    ShardPlanner(shards).write(index, path)
    return index, path


def sigkill(replica) -> None:
    """The real thing: SIGKILL the worker process, no cleanup courtesy."""
    os.kill(replica.proc.pid, signal.SIGKILL)
    replica.proc.wait(timeout=10.0)


def decision_fields(decision):
    # No ``kb2_id``: a post-compaction base legitimately renumbers.
    return (
        decision.query_uri,
        decision.kb2_uri,
        decision.rule,
        decision.score,
        decision.candidates,
        decision.degraded,
    )


class TestResurrect:
    def test_resurrect_replaces_a_dead_worker(self, mini_pair, tmp_path):
        config = MinoanERConfig(failure_mode="degrade")
        index, path = build_sharded(mini_pair, tmp_path, config, 2)
        engine = MatchEngine(index, config)
        batch = list(mini_pair.kb1)[:10]
        router = ShardRouter.spawn(path, 2, config=config)
        try:
            dead = router._replicas[0][0]
            sigkill(dead)
            assert not dead.alive
            assert router.resurrect(0, 0) is True
            fresh = router._replicas[0][0]
            assert fresh is not dead and fresh.alive
            assert router.match_batch(batch) == engine.match_batch(batch)
            assert router.stats()["sharding"]["resurrections"] == 1
        finally:
            router.close()

    def test_resurrect_skips_living_slots_and_closed_routers(
        self, mini_pair, tmp_path
    ):
        config = MinoanERConfig()
        _, path = build_sharded(mini_pair, tmp_path, config, 2)
        router = ShardRouter.spawn(path, 2, config=config)
        try:
            assert router.resurrect(0, 0) is False  # alive: no-op
        finally:
            router.close()
        assert router.resurrect(0, 0) is False  # closed: no-op

    def test_resurrected_worker_gets_a_breaker(self, mini_pair, tmp_path):
        config = MinoanERConfig()
        _, path = build_sharded(mini_pair, tmp_path, config, 2)
        router = ShardRouter.spawn(path, 2, config=config)
        try:
            sigkill(router._replicas[1][0])
            router.resurrect(1, 0)
            assert router._replicas[1][0].breaker is not None
        finally:
            router.close()


class TestSigkillMidStream:
    def test_kill_hedge_trip_resurrect_identical_stream(
        self, mini_pair, tmp_path, monkeypatch
    ):
        """Satellite: SIGKILL mid-request -> hedge covers, breaker
        records the corpse, supervisor resurrects, and the decision
        stream diffs clean against an uncrashed serve."""
        # Backups fire at once, whatever the observed latency.
        monkeypatch.setattr(ShardRouter, "_hedge_delay", lambda self, shard, op: 0.0)
        config = MinoanERConfig(failure_mode="degrade")
        index, path = build_sharded(mini_pair, tmp_path, config, 2)
        engine = MatchEngine(index, config)
        batch = list(mini_pair.kb1)[:12]
        expected = engine.match_batch(batch) + [
            engine.match(probe) for probe in batch
        ]
        router = ShardRouter.spawn(path, 2, replicas=2, config=config)
        supervisor = ReplicaSupervisor(
            router, base_backoff_s=0.0, jitter_ratio=0.0
        )
        try:
            victim = router._replicas[0][0]
            sigkill(victim)  # mid-stream: between the batch and singles
            streamed = router.match_batch(batch)
            # The sibling replica covered for the corpse: nothing
            # degraded, and with hedging on, backups fired.
            assert not any(d.degraded for d in streamed)
            assert victim.breaker._failures > 0 or victim.breaker.state != "closed"
            healed = supervisor.tick()
            assert healed == 1
            assert supervisor.restarts == 1
            assert router._replicas[0][0].alive
            streamed += [router.match(probe) for probe in batch]
            assert streamed == expected
            assert router.stats()["sharding"]["hedge_fired"] > 0
        finally:
            supervisor.close()
            router.close()

    def test_spawn_supervise_heals_in_background(self, mini_pair, tmp_path):
        config = MinoanERConfig(failure_mode="degrade")
        index, path = build_sharded(mini_pair, tmp_path, config, 2)
        engine = MatchEngine(index, config)
        batch = list(mini_pair.kb1)[:8]
        router = ShardRouter.spawn(
            path, 2, config=config,
            supervise=True,
            supervisor_options=dict(
                interval_s=0.02, base_backoff_s=0.0, jitter_ratio=0.0
            ),
        )
        try:
            assert router.supervisor is not None
            sigkill(router._replicas[1][0])
            deadline = time.monotonic() + 30.0
            while (
                router.supervisor.restarts == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert router.supervisor.restarts >= 1
            assert router.match_batch(batch) == engine.match_batch(batch)
            stats = router.stats()["sharding"]
            assert stats["supervisor"]["restarts"] >= 1
        finally:
            router.close()  # also closes the supervisor
        assert router.supervisor._thread is None


class TestResurrectionEquivalence:
    def test_kill_supervise_compact_stream_equals_quiet_serve(
        self, mini_pair, tmp_path
    ):
        """Acceptance: SIGKILL + supervised resurrection + mid-stream
        background compaction == an uncrashed, uncompacted serve."""
        config = MinoanERConfig(failure_mode="degrade")
        index, path = build_sharded(mini_pair, tmp_path, config, 2)
        kb1 = list(mini_pair.kb1)
        probes = kb1[:18]
        edits = list(mini_pair.kb2)[:2]

        def run(name: str, crash: bool, compact: bool):
            # Private copies of the index and shard files: the chaotic
            # run's compaction rewrites them on disk.
            import shutil

            from repro.sharding import shard_paths

            run_dir = tmp_path / name
            run_dir.mkdir()
            run_path = run_dir / path.name
            shutil.copy(path, run_path)
            for shard_file in shard_paths(path, 2):
                shutil.copy(shard_file, run_dir / shard_file.name)
            base = ResolutionIndex.load(run_path)
            router = LiveShardRouter.spawn(
                run_path, 2, replicas=2, config=config, index=base
            )
            router.index_path = run_path
            supervisor = ReplicaSupervisor(
                router, base_backoff_s=0.0, jitter_ratio=0.0
            )
            scheduler = CompactionScheduler(
                router, max_delta=1, path=run_path, clock=time.monotonic
            )
            out = []
            try:
                # Phase 1: mutate (delta overlay) and serve a slice.
                for entity in edits:
                    router.delete(entity.uri)
                out += router.match_batch(probes[:6])
                # Phase 2: the crash.
                if crash:
                    sigkill(router._replicas[0][0])
                out += router.match_batch(probes[6:12])
                if crash:
                    while supervisor.tick() == 0:
                        time.sleep(0.01)
                    assert supervisor.restarts == 1
                # Phase 3: background compaction mid-stream: re-shards
                # the base on disk and swaps the whole fleet.
                if compact:
                    assert scheduler.due() == "delta"
                    assert scheduler.tick() is True
                    assert router.index.delta.allocated + len(
                        router.index.delta.dead_base
                    ) == 0
                out += router.match_batch(probes[12:])
                out += [router.match(probe) for probe in probes[:4]]
            finally:
                supervisor.close()
                router.close()
            return [decision_fields(d) for d in out]

        quiet = run("quiet", crash=False, compact=False)
        chaotic = run("chaotic", crash=True, compact=True)
        assert chaotic == quiet

    def test_resurrection_refuses_a_stale_epoch(self, mini_pair, tmp_path):
        """A worker spawned before a base swap maps the old shard file;
        readmitting it would serve stale bytes.  The gate re-checks the
        swap epoch and discards it."""
        config = MinoanERConfig(failure_mode="degrade")
        index, path = build_sharded(mini_pair, tmp_path, config, 2)
        base = ResolutionIndex.load(path)
        router = LiveShardRouter.spawn(
            path, 2, replicas=2, config=config, index=base
        )
        try:
            sigkill(router._replicas[0][0])
            original_factory = router._replica_factory

            def swapping_factory(shard):
                # A compaction completes while the fresh worker spawns.
                replica = original_factory(shard)
                router.delete(list(mini_pair.kb2)[0].uri)
                router.compact(path)
                return replica

            router._replica_factory = swapping_factory
            with pytest.raises(ShardFailure, match="swapped during resurrection"):
                router.resurrect(0, 0)
            router._replica_factory = original_factory
            # The retry (what the supervisor would do) maps the new
            # base and succeeds.
            assert router.resurrect(0, 0) is True
            assert router._replicas[0][0].alive
        finally:
            router.close()
