"""Subprocess workers: spawn, equality, hedging, mid-stream death.

Slower than the inline suite (real worker processes over pipes), so it
sticks to the mini profile and small query sets.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.config import MinoanERConfig
from repro.serving import MatchEngine, ResolutionIndex
from repro.sharding import ShardFailure, ShardPlanner, ShardRouter


def build_sharded(pair, tmp_path, config, shards):
    index = ResolutionIndex.build(pair.kb2, config)
    path = tmp_path / "kb2.idx"
    index.save(path)
    ShardPlanner(shards).write(index, path)
    return index, path


class TestSpawn:
    def test_two_shard_workers_match_unsharded(self, mini_pair, tmp_path):
        config = MinoanERConfig()
        index, path = build_sharded(mini_pair, tmp_path, config, 2)
        engine = MatchEngine(index, config)
        batch = list(mini_pair.kb1)
        router = ShardRouter.spawn(path, 2, config=config)
        try:
            assert router.match_batch(batch) == engine.match_batch(batch)
            sample = batch[:10]
            assert [router.match(e) for e in sample] == [
                engine.match(e) for e in sample
            ]
        finally:
            router.close()

    def test_spawn_requires_shard_files(self, mini_pair, tmp_path):
        config = MinoanERConfig()
        index = ResolutionIndex.build(mini_pair.kb2, config)
        path = tmp_path / "kb2.idx"
        index.save(path)
        with pytest.raises(FileNotFoundError, match="missing shard files"):
            ShardRouter.spawn(path, 3, config=config)

    def test_hello_reports_shard_identity(self, mini_pair, tmp_path):
        config = MinoanERConfig()
        index, path = build_sharded(mini_pair, tmp_path, config, 2)
        router = ShardRouter.spawn(path, 2, config=config)
        try:
            hello = router._replicas[1][0].request("hello")
            assert hello["shard"] == 1
            assert hello["count"] == 2
            assert hello["n2"] == index.n2
        finally:
            router.close()


def zero_hedge_delay(monkeypatch) -> None:
    """Fire every backup request at once, whatever the observed latency."""
    monkeypatch.setattr(ShardRouter, "_hedge_delay", lambda self, shard, op: 0.0)


class TestHedging:
    def test_zero_delay_hedges_stay_identical(self, mini_pair, tmp_path, monkeypatch):
        zero_hedge_delay(monkeypatch)
        config = MinoanERConfig()
        index, path = build_sharded(mini_pair, tmp_path, config, 2)
        engine = MatchEngine(index, config)
        batch = list(mini_pair.kb1)[:15]
        router = ShardRouter.spawn(path, 2, replicas=2, config=config)
        try:
            assert [router.match(e) for e in batch] == [
                engine.match(e) for e in batch
            ]
            section = router.stats()["sharding"]
            assert section["hedge_fired"] > 0
            assert (
                section["hedge_won"] + section["hedge_lost"]
                <= section["hedge_fired"]
            )
        finally:
            router.close()

    def test_single_replica_never_hedges(self, mini_pair, tmp_path, monkeypatch):
        zero_hedge_delay(monkeypatch)
        config = MinoanERConfig()
        _, path = build_sharded(mini_pair, tmp_path, config, 2)
        router = ShardRouter.spawn(path, 2, replicas=1, config=config)
        try:
            for entity in list(mini_pair.kb1)[:5]:
                router.match(entity)
            assert router.stats()["sharding"]["hedge_fired"] == 0
        finally:
            router.close()


class TestWorkerDeath:
    def test_killed_worker_degrades_midstream(self, mini_pair, tmp_path):
        config = MinoanERConfig(failure_mode="degrade")
        index, path = build_sharded(mini_pair, tmp_path, config, 2)
        batch = list(mini_pair.kb1)
        errors = []
        router = ShardRouter.spawn(
            path, 2, config=config,
            on_shard_error=lambda shard, error: errors.append(shard),
        )
        try:
            healthy = router.match_batch(batch[:5])
            assert not any(d.degraded for d in healthy)

            router._replicas[0][0].kill()
            degraded = router.match_batch(batch[5:10])
            assert all(d.degraded for d in degraded)
            # Degraded-but-valid: the stream still carries decisions.
            assert len(degraded) == 5
            assert errors == [0]
            assert router.stats()["sharding"]["down"] == [0]
        finally:
            router.close()

    def test_replica_failover_within_shard(self, mini_pair, tmp_path):
        # With 2 replicas, killing one is invisible: the sibling answers
        # and nothing degrades.
        config = MinoanERConfig(failure_mode="degrade")
        index, path = build_sharded(mini_pair, tmp_path, config, 2)
        engine = MatchEngine(index, config)
        batch = list(mini_pair.kb1)[:10]
        router = ShardRouter.spawn(path, 2, replicas=2, config=config)
        try:
            router._replicas[0][0].kill()
            decisions = router.match_batch(batch)
            assert not any(d.degraded for d in decisions)
            assert decisions == engine.match_batch(batch)
        finally:
            router.close()

    def test_fail_fast_raises_on_dead_shard(self, mini_pair, tmp_path):
        config = MinoanERConfig()
        _, path = build_sharded(mini_pair, tmp_path, config, 2)
        router = ShardRouter.spawn(path, 2, config=config)
        try:
            router._replicas[1][0].kill()
            with pytest.raises(ShardFailure):
                router.match_batch(list(mini_pair.kb1)[:3])
        finally:
            router.close()


class TestTraceMerge:
    def test_close_grafts_worker_snapshots(self, mini_pair, tmp_path):
        config = MinoanERConfig()
        _, path = build_sharded(mini_pair, tmp_path, config, 2)
        router = ShardRouter.spawn(path, 2, config=config)
        router.match(list(mini_pair.kb1)[0])
        router.close()
        assert "shard.worker" in router.recorder.span_names()
        spans = [s for s in router.recorder.spans() if s.name == "shard.worker"]
        assert {span.attributes["shard"] for span in spans} == {0, 1}


FAULTS_OF_A_BATCH = """
import resource, sys
import numpy as np
from repro.sharding.worker import keep_freed_memory
if sys.argv[1] == "keep":
    keep_freed_memory()
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(1 << 20) for _ in range(5)]  # five 8 MB arrays at once
    del arrays
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="tunes glibc's malloc")
def test_keep_freed_memory_stops_batches_faulting_their_arrays_in():
    """The fourth of four identical 'batches' faults its arrays in anew
    under glibc's defaults, and not at all once the process keeps its
    freed memory (a fresh interpreter each, as the setting is global)."""
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}

    def faults(mode: str) -> int:
        run = subprocess.run(
            [sys.executable, "-c", FAULTS_OF_A_BATCH, mode],
            env=env, capture_output=True, text=True, check=True,
        )
        return int(run.stdout)

    assert faults("default") > 1000
    assert faults("keep") < 50
