"""Property test: any interleaving of live edits equals a cold rebuild.

Hypothesis drives random sequences of ``upsert`` / ``delete`` /
``compact`` against a :class:`LiveEngine` (over a built and a loaded base) and a
:class:`LiveShardRouter` (1-4 shards), then replays the *net* effect of
the sequence as a plain entity list and rebuilds a frozen index from
scratch.  Every probe -- one per entity ever mentioned, plus a
guaranteed miss -- must decide identically on both sides, and every
compaction must write exactly the bytes a cold build of the state at
that point saves.

The KB family is relation-neutral by construction (two literal
attributes, globally distinct unique tokens plus a controlled shared
token), which is exactly the scope ``docs/live_index.md`` claims exact
equivalence for.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import MinoanERConfig
from repro.kb.entity import EntityDescription
from repro.kb.knowledge_base import KnowledgeBase
from repro.serving import LiveEngine, MatchEngine, ResolutionIndex
from repro.sharding import InlineReplica, LiveShardRouter, ShardPlanner, ShardWorker

CONFIG = MinoanERConfig()

POOL = 12  # URIs 0..POOL-1; base holds the first 8


def make_entity(i: int, version: int) -> EntityDescription:
    """Version ``v`` of entity ``i``: unique tokens carry the version,
    the shared token ties entities together so EFs (and thus weights)
    actually shift as the edit sequence runs."""
    return EntityDescription(
        f"http://kb2/e{i}",
        [
            ("name", f"alpha{i}v{version} tag{i}v{version}"),
            ("info", f"shared extra{i}v{version}"),
        ],
    )


BASE = [make_entity(i, 0) for i in range(8)]


def build_index(entities):
    return ResolutionIndex.build(KnowledgeBase(list(entities), name="kb2"), CONFIG)


operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("upsert"),
            st.integers(min_value=0, max_value=POOL - 1),
            st.integers(min_value=1, max_value=3),
        ),
        st.tuples(
            st.just("delete"),
            st.integers(min_value=0, max_value=POOL - 1),
            st.just(0),
        ),
        st.tuples(st.just("compact"), st.just(0), st.just(0)),
    ),
    min_size=1,
    max_size=12,
)


def net_state(ops) -> list[EntityDescription]:
    """The entity list a cold observer would build after ``ops``."""
    state = {i: 0 for i in range(8)}  # uri index -> version, present only
    for op, i, version in ops:
        if op == "upsert":
            state.pop(i, None)
            state[i] = version  # re-insert at the end: rebuild order
        elif op == "delete":
            state.pop(i, None)
    return [make_entity(i, version) for i, version in state.items()]


def probes(ops):
    mentioned = set(range(8)) | {i for op, i, _ in ops if op != "compact"}
    out = []
    for i in sorted(mentioned):
        for version in range(4):
            out.append(
                EntityDescription(
                    f"http://q/{i}v{version}",
                    [("label", f"alpha{i}v{version} tag{i}v{version}")],
                )
            )
    out.append(EntityDescription("http://q/miss", [("label", "nonsense never")]))
    return out


def decision_fields(decision):
    return (
        decision.query_uri,
        decision.kb2_uri,
        decision.rule,
        decision.score,
        decision.candidates,
        decision.degraded,
    )


# A tombstoned delta slot with no dead base id: ``delta_active`` is
# False, yet the slot still occupies an id above ``base.n2``, so every
# side-2 structure must span ``id_space`` (batches used to raise
# "side-2 candidate lists must cover all n2 entities").
TOMBSTONE_ONLY = [
    ("delete", 0, 0),
    ("compact", 0, 0),
    ("upsert", 0, 1),
    ("delete", 0, 0),
]


def assert_equals_cold_rebuild(target, ops, context=()):
    """Single probes and the probe batch decide as a cold rebuild does."""
    cold = MatchEngine(build_index(net_state(ops)), CONFIG)
    batch = probes(ops)
    for probe in batch:
        assert decision_fields(target.match(probe)) == decision_fields(
            cold.match(probe)
        ), (probe.uri, ops, *context)
    # Single and batch paths agree with each other too.
    ours = [decision_fields(d) for d in target.match_batch(batch)]
    theirs = [decision_fields(d) for d in cold.match_batch(batch)]
    assert ours == theirs, (ops, *context)


# Pinned folds: an edit that empties a base token's posting and a name
# (e3 deleted, e2's version-0 tokens and name replaced), and delta
# tokens and names new to the base (e2 version 2, new entity e9).
FOLD_EDGES = [
    ("delete", 3, 0),
    ("upsert", 9, 1),
    ("upsert", 2, 2),
    ("compact", 0, 0),
    ("delete", 9, 0),
    ("compact", 0, 0),
]

# One base entity killed again and again: the second and third kills of
# its base id must not count its tokens' dead members twice.
REKILLED = [
    ("delete", 4, 0),
    ("upsert", 4, 1),
    ("delete", 4, 0),
    ("upsert", 4, 2),
]

# Every entity deleted: the emptied KB's cold build discovers no name
# attributes, so only the next compaction's bytes are compared.
EMPTIED = [("delete", i, 0) for i in range(8)] + [
    ("compact", 0, 0),
    ("upsert", 3, 1),
    ("compact", 0, 0),
]


def drive(target, ops, tmp_path):
    """Apply ``ops``; after each compaction the file on disk must be a
    cold build's bytes of the state so far -- within the documented
    scope, where the edits keep the KB's discovered name attributes (an
    emptied KB discovers none; its decisions are still checked)."""
    for step, (op, i, version) in enumerate(ops):
        if op == "upsert":
            target.upsert(make_entity(i, version))
        elif op == "delete":
            target.delete(f"http://kb2/e{i}")
        else:
            target.compact(tmp_path / "kb2.idx")
            cold = build_index(net_state(ops[: step + 1]))
            if cold.name_attributes == target.index.name_attributes:
                cold.save(tmp_path / "cold.idx")
                assert (tmp_path / "kb2.idx").read_bytes() == (tmp_path / "cold.idx").read_bytes(), ops


class TestLiveEngineProperty:
    @pytest.mark.parametrize("loaded", [False, True])
    @given(ops=operations)
    @example(ops=TOMBSTONE_ONLY)
    @example(ops=FOLD_EDGES)
    @example(ops=EMPTIED)
    @example(ops=REKILLED)
    @settings(max_examples=25, deadline=None)
    def test_any_interleaving_equals_cold_rebuild(self, loaded, ops, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("live")
        index = build_index(BASE)
        if loaded:
            index.save(tmp_path / "base.idx")
            index = ResolutionIndex.load(tmp_path / "base.idx")
        engine = LiveEngine(index, CONFIG)
        drive(engine, ops, tmp_path)
        assert_equals_cold_rebuild(engine, ops)


class TestLiveShardRouterProperty:
    @given(ops=operations, shards=st.integers(min_value=1, max_value=4))
    @example(ops=TOMBSTONE_ONLY, shards=2)
    @example(ops=FOLD_EDGES, shards=3)
    @example(ops=REKILLED, shards=2)
    @settings(max_examples=15, deadline=None)
    def test_any_interleaving_any_shard_count(self, ops, shards, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("live")
        index = build_index(BASE)
        replica_sets = [
            [InlineReplica(ShardWorker(MatchEngine(shard, CONFIG)))]
            for shard in ShardPlanner(shards).plan(index)
        ]
        router = LiveShardRouter(index, replica_sets, CONFIG)
        router.index_path = tmp_path / "kb2.idx"
        try:
            drive(router, ops, tmp_path)
            assert_equals_cold_rebuild(router, ops, (shards,))
        finally:
            router.close()
