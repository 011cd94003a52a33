"""One value-evidence path: every provider of the engine's evidence seam
decides exactly like a cold rebuild, single query and batch of one alike.

The engine's ``_lookup`` / ``_match_many`` are written once; the
unsharded engine, the shard router and the live shard router differ
only in where the value evidence comes from (in-process or
scatter-gather; the live shard router answers in-process while edits
are pending).  The matrix below crosses those providers
with the config knob that changes the merge shape (``dynamic_pruning``)
and pins the two degraded exits every provider shares: an expired
deadline and a shard that is down in ``degrade`` mode.

The KB family is the relation-neutral one of
``test_live_equivalence.py`` (exact live == rebuild scope), with a
token shared by every entity so a value probe has many candidates.
"""

import pytest

from repro.core.config import MinoanERConfig
from repro.kb.entity import EntityDescription
from repro.kb.knowledge_base import KnowledgeBase
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import parse_chaos, use_faults
from repro.serving import LiveEngine, MatchEngine, ResolutionIndex
from repro.sharding import (
    InlineReplica,
    LiveShardRouter,
    ShardPlanner,
    ShardRouter,
    ShardWorker,
)

PROVIDERS = [
    "engine-built",
    "engine-loaded",
    "live-engine",
    "shard-router",
    "live-shard-router",
]
SHARDED = ["shard-router", "live-shard-router"]
SHARDS = 3


def entity(i: int, version: int = 0) -> EntityDescription:
    return EntityDescription(
        f"http://kb2/e{i}",
        [
            ("name", f"alpha{i}v{version} tag{i}v{version}"),
            ("info", f"shared extra{i}v{version}"),
        ],
    )


BASE = [entity(i) for i in range(12)]
# delete e5, add e20, overwrite e3: survivors keep base order, delta
# entities follow in upsert order -- a cold rebuild's id assignment.
FINAL = [entity(i) for i in range(12) if i not in (3, 5)] + [entity(20), entity(3, 1)]


def apply_edits(target) -> None:
    target.delete("http://kb2/e5")
    target.upsert(entity(20))
    target.upsert(entity(3, 1))


def probe(uri: str, label: str) -> EntityDescription:
    return EntityDescription(uri, [("label", label)])


# Exact names (rule R1) and value-only probes; ``shared`` touches every
# indexed entity, so each value probe has many candidates.
PROBES = [
    probe("q-name", "alpha1v0 tag1v0"),
    probe("q-kept", "alpha2v0 tag2v0 shared"),
    probe("q-deleted", "alpha5v0 tag5v0 shared"),
    probe("q-added", "alpha20v0 shared"),
    probe("q-stale", "alpha3v0 tag3v0 shared"),
    probe("q-fresh", "alpha3v1 tag3v1 shared"),
    probe("q-miss", "nonsense never"),
]


def build_index(entities, config):
    return ResolutionIndex.build(KnowledgeBase(list(entities), name="kb2"), config)


def inline_replicas(index, config, failure_threshold=None):
    """One in-process replica per shard; with ``failure_threshold``, each
    brings its own breaker (the router attaches the default otherwise)."""
    groups = []
    for shard in ShardPlanner(SHARDS).plan(index):
        replica = InlineReplica(ShardWorker(MatchEngine(shard, config)))
        if failure_threshold is not None:
            replica.breaker = CircuitBreaker(failure_threshold=failure_threshold)
        groups.append([replica])
    return groups


@pytest.fixture
def provide(tmp_path):
    """``provide(name, config)`` -> a serving target holding ``FINAL``;
    ``failure_threshold`` pre-attaches breakers to a router's replicas."""
    routers = []

    def make(name: str, config: MinoanERConfig, failure_threshold=None):
        if name == "engine-built":
            return MatchEngine(build_index(FINAL, config), config)
        if name == "engine-loaded":
            path = tmp_path / "final.idx"
            build_index(FINAL, config).save(path)
            return MatchEngine(ResolutionIndex.load(path), config)
        if name == "live-engine":
            target = LiveEngine(build_index(BASE, config), config)
        elif name == "shard-router":
            index = build_index(FINAL, config)
            replicas = inline_replicas(index, config, failure_threshold)
            target = ShardRouter(index, replicas, config)
            routers.append(target)
            return target
        else:
            index = build_index(BASE, config)
            replicas = inline_replicas(index, config, failure_threshold)
            target = LiveShardRouter(index, replicas, config)
            routers.append(target)
        apply_edits(target)
        assert target.index.delta_active
        return target

    yield make
    for router in routers:
        router.close()


def fields(decision):
    return (
        decision.kb2_uri,
        decision.rule,
        decision.score,
        decision.candidates,
        decision.degraded,
    )


@pytest.mark.parametrize("pruning", [False, True], ids=["fixed-k", "adaptive-cut"])
@pytest.mark.parametrize("provider", PROVIDERS)
def test_single_equals_batch_of_one_equals_cold_rebuild(provide, provider, pruning):
    config = MinoanERConfig(dynamic_pruning=pruning)
    target = provide(provider, config)
    cold = MatchEngine(build_index(FINAL, config), config)
    for query in PROBES:
        expected = fields(cold.match(query))
        assert not expected[-1]
        assert fields(target.match(query)) == expected, query.uri
        assert fields(target.match_batch([query])[0]) == expected, query.uri


@pytest.mark.parametrize("provider", PROVIDERS)
def test_deadline_expiring_before_value_evidence_degrades(provide, provider):
    target = provide(provider, MinoanERConfig(serving_deadline_ms=1e-6))
    named, unnamed = PROBES[0], PROBES[1]
    for _ in range(2):  # the repeat would be a cache hit had it been cached
        decision = target.match(named)
        assert fields(decision) == ("http://kb2/e1", "R1", float("inf"), 0, True)
        assert not decision.cached
        assert fields(target.match(unnamed)) == (None, None, None, 0, True)
    assert target.stats()["cache"]["hits"] == 0
    batch = target.match_batch([named, unnamed])
    assert [fields(d) for d in batch] == [
        ("http://kb2/e1", "R1", float("inf"), 0, True),
        (None, None, None, 0, True),
    ]
    assert target.stats()["deadline_expired"] == 5


@pytest.mark.parametrize("provider", SHARDED)
def test_shard_down_in_degrade_mode_flags_and_never_caches(provide, provider):
    config = MinoanERConfig(failure_mode="degrade")
    target = provide(provider, config, failure_threshold=1000)
    cold = MatchEngine(build_index(FINAL, config), config)
    with use_faults(parse_chaos("shard:request:1=error")):
        if provider == "live-shard-router":
            # Under a live delta singles and batches are answered
            # in-process: no shard is asked, so none degrades them.
            for query in PROBES:
                assert fields(target.match(query)) == fields(cold.match(query))
            assert not any(d.degraded for d in target.match_batch(PROBES))
            return
        for _ in range(2):
            for query in PROBES:
                decision = target.match(query)
                assert decision.degraded and not decision.cached, query.uri
        assert target.stats()["cache"]["hits"] == 0
        assert all(d.degraded for d in target.match_batch(PROBES))
    # The shard is back: full evidence again, and now cacheable.
    for query in PROBES:
        assert fields(target.match(query)) == fields(cold.match(query))
    assert target.match(PROBES[1]).cached
