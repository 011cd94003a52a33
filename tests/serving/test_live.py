"""Live index: delta segments, ledger, compaction, zero-drop swaps.

The load-bearing property throughout: an engine over base + delta
answers **bit-identically** to an engine over a full rebuild of the
same live entities -- the same contract every other serving layer
(loaded indexes, sharding) already holds to.  The controlled KBs here keep every
edit relation-neutral (two literal attributes, globally distinct
values), which is the scope ``docs/live_index.md`` documents for exact
equivalence and byte-identical compaction.
"""

import json
import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.config import MinoanERConfig
from repro.kb.entity import EntityDescription
from repro.kb.knowledge_base import KnowledgeBase
from repro.serving import (
    IndexHandle,
    LedgerError,
    LiveEngine,
    LiveIndex,
    MatchEngine,
    ResolutionIndex,
    UpsertLedger,
)
from repro.serving.live import _PYTHON_MASK_MAX


def entity(i: int, word: str | None = None, info: str | None = None):
    """A relation-neutral KB2 entity with a unique name token."""
    word = word or f"alpha{i}"
    return EntityDescription(
        f"http://kb2/e{i}",
        [("name", f"{word} tag{i}"), ("info", info or f"extra{i} blob")],
    )


def build_index(entities, config=None):
    kb2 = KnowledgeBase(list(entities), name="kb2")
    return ResolutionIndex.build(kb2, config or MinoanERConfig())


def query(label: str, uri: str = "q"):
    return EntityDescription(uri, [("label", label)])


def decision_fields(decision):
    # ``kb2_id`` is deliberately absent: the overlay keeps base ids
    # (delta entities live above ``base.n2``) while a cold rebuild
    # renumbers, so ids legitimately differ.  The monotone-renumbering
    # argument guarantees the same *winner* -- URI, rule, score and
    # candidate count must all agree.
    return (
        decision.kb2_uri,
        decision.rule,
        decision.score,
        decision.candidates,
        decision.degraded,
    )


BASE = [entity(i) for i in range(8)]
CONFIG = MinoanERConfig()


# ----------------------------------------------------------------------
# Ledger
# ----------------------------------------------------------------------
class TestUpsertLedger:
    def test_roundtrip(self, tmp_path):
        ledger = UpsertLedger(tmp_path / "ops.jsonl")
        ledger.append_upsert(entity(99, "zeta99"))
        ledger.append_delete("http://kb2/e3")
        events = list(UpsertLedger(ledger.path).replay())
        assert [op for op, _ in events] == ["upsert", "delete"]
        assert events[0][1] == entity(99, "zeta99")
        assert events[1][1] == "http://kb2/e3"

    def test_missing_file_is_empty(self, tmp_path):
        assert list(UpsertLedger(tmp_path / "absent.jsonl").replay()) == []

    def test_clear_truncates(self, tmp_path):
        ledger = UpsertLedger(tmp_path / "ops.jsonl")
        ledger.append_delete("http://kb2/e1")
        ledger.clear()
        assert list(ledger.replay()) == []

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            '{"op": "merge"}',
            '{"op": "upsert"}',
            '{"op": "upsert", "entity": {"uri": "", "pairs": []}}',
            '{"op": "upsert", "entity": {"uri": "e", "pairs": [["a"]]}}',
            '{"op": "delete"}',
            '["op", "delete"]',
        ],
    )
    def test_bad_lines_raise_with_line_number(self, tmp_path, line):
        path = tmp_path / "ops.jsonl"
        path.write_text(
            '{"op": "delete", "uri": "http://kb2/e1"}\n' + line + "\n",
            encoding="utf-8",
        )
        with pytest.raises(LedgerError, match="line 2"):
            list(UpsertLedger(path).replay())

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "ops.jsonl"
        path.write_text(
            '\n{"op": "delete", "uri": "e"}\n\n', encoding="utf-8"
        )
        assert len(list(UpsertLedger(path).replay())) == 1


# ----------------------------------------------------------------------
# LiveIndex overlay semantics
# ----------------------------------------------------------------------
class TestLiveIndex:
    """Overlay views over a built base.  The subclasses below re-run
    every case over a loaded (memory-mapped) base, and with every
    posting's dead ids masked from python whatever its size (by default
    only short postings are; long ones take a numpy gather)."""

    @pytest.fixture(autouse=True)
    def _workdir(self, tmp_path):
        self.tmp_path = tmp_path

    def base(self, entities=BASE):
        return build_index(entities)

    def live(self, entities=BASE):
        return LiveIndex(self.base(entities))

    def assert_base_posting(self, live, token):
        # The base hands out a fresh slice per lookup, so zero-copy
        # means a view of the base's own pages rather than the same object.
        import numpy

        ids = live.postings[token]
        assert isinstance(ids, numpy.ndarray)
        assert numpy.shares_memory(ids, live.base.postings[token])

    def test_fresh_overlay_matches_base(self):
        index = self.base()
        live = LiveIndex(index)
        assert live.n2 == index.n2
        assert live.id_space == index.n2
        assert not live.delta_active
        for token in index.postings:
            assert list(live.postings[token]) == list(index.postings[token])
            assert live.singleton_weights[token] == index.singleton_weights[token]

    def test_unaffected_token_posting_is_the_base_object(self):
        # Zero-copy: a token no edit touched must come back as the
        # base's own sequence, not a copy (mapped slices stay slices).
        live = self.live()
        live.upsert(entity(99, "zeta99"))
        self.assert_base_posting(live, "alpha3")

    def test_upsert_new_entity_extends_id_space(self):
        live = self.live()
        eid = live.upsert(entity(99, "zeta99"))
        assert eid == 8
        assert live.n2 == 9
        assert live.id_space == 9
        assert live.uris2[eid] == "http://kb2/e99"
        assert list(live.postings["zeta99"]) == [8]
        assert live.entity_frequency("zeta99") == 1

    def test_upsert_shadows_base_entity_with_same_uri(self):
        live = self.live()
        live.upsert(
            EntityDescription(
                "http://kb2/e3", [("name", "beta3 tag3x"), ("info", "changed")]
            )
        )
        assert live.n2 == 8  # replaced, not added
        assert live.id_space == 9
        assert 3 in live.delta.dead_base
        # The old tokens no longer reach e3; the new ones reach slot 0.
        assert 3 not in list(live.postings.get("alpha3", ()))
        assert list(live.postings["beta3"]) == [8]
        assert live.entity_frequency("alpha3") == 0

    def test_reupsert_tombstones_the_previous_slot(self):
        live = self.live()
        first = live.upsert(entity(99, "zeta99"))
        second = live.upsert(entity(99, "eta99"))
        assert second == first + 1
        assert live.n2 == 9
        assert live.id_space == 10
        assert live.tombstone_count == 1
        assert live.entity_frequency("zeta99") == 0
        assert list(live.postings["eta99"]) == [second]

    def test_delete_base_and_delta(self):
        live = self.live()
        assert live.delete("http://kb2/e5")
        assert live.n2 == 7
        assert not live.delete("http://kb2/e5")  # already dead
        eid = live.upsert(entity(99, "zeta99"))
        assert live.delete("http://kb2/e99")
        assert live.n2 == 7
        assert live.entity_frequency("zeta99") == 0
        assert not live.delete("http://kb2/nonesuch")
        assert eid not in list(live.postings.get("zeta99", ()))

    def test_live_weights_follow_live_ef(self):
        from repro.kernels import block_weight

        base = [entity(i, "shared") for i in range(4)]
        live = self.live(base)
        assert live.singleton_weights["shared"] == block_weight(4)
        live.delete("http://kb2/e0")
        assert live.singleton_weights["shared"] == block_weight(3)
        live.upsert(entity(9, "shared"))
        live.upsert(entity(10, "shared"))
        assert live.singleton_weights["shared"] == block_weight(5)

    def test_names_shadow_and_extend(self):
        live = self.live()
        assert live.names["alpha3 tag3"] == (3,)
        live.upsert(
            EntityDescription(
                "http://kb2/e3", [("name", "beta3 tag3x"), ("info", "z")]
            )
        )
        assert "alpha3 tag3" not in live.names
        assert live.names["beta3 tag3x"] == (8,)

    def test_in_neighbors_masks_dead_and_extends(self):
        live = self.live()
        live.upsert(entity(99, "zeta99"))
        live.delete("http://kb2/e2")
        csr = live.in_neighbors
        assert len(csr) == live.id_space
        assert list(csr.neighbors(2)) == []
        assert list(csr.neighbors(8)) == []

    def test_refuses_shard_bases(self):
        from repro.sharding import ShardPlanner

        shard = ShardPlanner(2).plan(self.base())[0]
        with pytest.raises(ValueError, match="not a shard"):
            LiveIndex(shard)

    def test_apply_unknown_op_raises(self):
        live = self.live()
        with pytest.raises(ValueError, match="unknown live-index op"):
            live.apply("merge", "x")

    def test_describe_reports_delta(self):
        live = self.live()
        live.upsert(entity(99, "zeta99"))
        live.delete("http://kb2/e1")
        summary = live.describe()
        assert summary["entities"] == 8
        assert summary["delta"] == {
            "entities": 1,
            "allocated": 1,
            "dead_base": 1,
            "tombstones": 1,
        }

    def test_base_id_finds_every_base_uri_and_nothing_else(self):
        # Shared prefixes and multi-byte UTF-8, listed out of order, so
        # the search through ``uri_order`` meets every comparison.
        uris = [
            "http://kb2/b", "http://kb2/a/1", "http://kb2/bä", "http://kb2/ba",
            "http://kb2/日本", "http://kb2/c", "http://kb2/été", "http://kb2/bäz",
        ]
        live = self.live([EntityDescription(uri, [("name", f"n{i}")]) for i, uri in enumerate(uris)])
        for eid, uri in enumerate(uris):
            assert live._base_id(uri) == eid, uri
        absent = [
            "http://kb2/a",  # a prefix of a URI
            "http://kb2/",
            "http://kb2/c/",  # extensions of one
            "http://kb2/bab",
            "http://kb2/bö",  # non-ASCII
            "http://kb2/日",
            "http://kb2/\ud800",  # a lone surrogate
            "",  # before the first
            "http://kb1/z",
            "http://kb2/\U0010ffff",  # after the last
            "zzz",
        ]
        for uri in absent:
            assert live._base_id(uri) is None, uri
        assert not live.delete("http://kb2/a") and not live.delta_active

    def test_reupserted_base_entity_is_counted_dead_once(self):
        # delete, upsert, delete, upsert: the base id dies once, however
        # often the overlay is asked to kill it.
        live = self.live()
        for word in ("betax", "betay"):
            assert live.delete("http://kb2/e1")
            live.upsert(entity(1, word))
        assert len(live.delta.dead_base) == 1
        assert live.entity_frequency("blob") == len(BASE)
        assert live.entity_frequency("tag1") == 1
        assert live.entity_frequency("alpha1") == 0
        assert_views_equal_compaction(live, {"blob", "tag1", "extra1", "alpha1", "betax", "betay"})

    def test_views_agree_with_compaction_under_random_edits(self):
        # After every edit of a seeded upsert/delete sequence, each token
        # an edit touched must read the same through the overlay as
        # through ``compact()`` under its renumbering, and so must every
        # in-neighbor row (the base links its entities to each other).
        rng = random.Random(2519)
        live = self.live(LINKED)
        assert len(live.base.in_neighbors.ids)
        assert len(live.base.postings["extra1"]) > _PYTHON_MASK_MAX
        current = {e.uri: e for e in LINKED}
        uris = list(current)[:20] + [f"http://kb2/new{i}" for i in range(6)]
        touched: set[str] = set()
        for _ in range(40):
            uri = rng.choice(uris)
            edits = [current.pop(uri, None)]
            if rng.random() < 0.35:
                live.delete(uri)
            else:
                name = f"w{rng.randrange(7)} tag{rng.randrange(30)} new{rng.randrange(4)}"
                current[uri] = EntityDescription(uri, [("name", name)])
                live.upsert(current[uri])
                edits.append(current[uri])
            for edited in filter(None, edits):
                touched |= live.tokenizer.token_set([v for _, v in edited.pairs])
            assert_views_equal_compaction(live, touched)
        # Dead ids elsewhere must not cost untouched tokens their zero copy.
        untouched = [t for t in live.base.postings if t not in touched]
        assert "extra0" in touched and "extra1" in untouched and live.delta.dead_base
        for token in untouched:
            self.assert_base_posting(live, token)


# Shared tokens and a link per entity, so edits move Entity Frequencies
# and prune in-neighbor rows.  The ``extra*`` postings are long enough
# for the vectorised mask path (the rest take the short-posting python
# path), and only ``extra0``'s entities are ever edited.
LINKED = [
    EntityDescription(
        f"http://kb2/e{i}",
        [
            ("name", f"w{i % 5} tag{i}"),
            ("info", f"w{(i * 3) % 7} extra{i // 20}"),
            ("link", f"http://kb2/e{(i * 7 + 1) % 40}"),
        ],
    )
    for i in range(40)
]


def assert_views_equal_compaction(live, tokens):
    compacted = live.compact()
    base_n2 = live.base.n2
    order = [eid for eid in range(base_n2) if eid not in live.delta.dead_base]
    order += [base_n2 + slot for slot in live.delta.live_slots()]
    new_id = {old: new for new, old in enumerate(order)}
    for token in sorted(tokens):
        assert [new_id[eid] for eid in live.postings.get(token, ())] == list(
            compacted.postings.get(token, ())
        ), token
        assert live.entity_frequency(token) == compacted.entity_frequency(token), token
        weighted = token in live.singleton_weights
        assert weighted == (token in compacted.singleton_weights), token
        if weighted:
            assert (
                live.singleton_weights[token] == compacted.singleton_weights[token]
            ), token
    csr = live.in_neighbors
    assert len(csr) == live.id_space
    for eid in range(live.id_space):
        row = [new_id[j] for j in csr.neighbors(eid)]
        expected = (
            list(compacted.in_neighbors.neighbors(new_id[eid])) if eid in new_id else []
        )
        assert row == expected, eid


class TestLiveIndexMapped(TestLiveIndex):
    def base(self, entities=BASE):
        path = self.tmp_path / "base.idx"
        build_index(entities).save(path)
        return ResolutionIndex.load(path)


class TestLiveIndexPythonMask(TestLiveIndex):
    @pytest.fixture(autouse=True)
    def _python_mask_only(self, monkeypatch):
        monkeypatch.setattr("repro.serving.live._PYTHON_MASK_MAX", 1 << 30)


# ----------------------------------------------------------------------
# Rebuild equivalence + compaction
# ----------------------------------------------------------------------
def final_entities():
    """BASE after: delete e5, overwrite e3, add e99 -- rebuild order."""
    survivors = [entity(i) for i in range(8) if i not in (3, 5)]
    return survivors + [
        entity(99, "zeta99"),
        EntityDescription(
            "http://kb2/e3", [("name", "beta3 tag3x"), ("info", "changed")]
        ),
    ]


def edited_live_engine(loaded: bool, tmp_path, cache=None):
    """The edited engine over a built base, or (``loaded``) over that
    base saved and mapped back in."""
    index = build_index(BASE)
    if loaded:
        index.save(tmp_path / "base.idx")
        index = ResolutionIndex.load(tmp_path / "base.idx")
    engine = LiveEngine(index, CONFIG, cache=cache)
    engine.delete("http://kb2/e5")
    engine.upsert(entity(99, "zeta99"))
    engine.upsert(
        EntityDescription(
            "http://kb2/e3", [("name", "beta3 tag3x"), ("info", "changed")]
        )
    )
    return engine


PROBES = (
    [query(f"alpha{i} tag{i}", uri=f"q{i}") for i in range(8)]
    + [
        query("zeta99 tag99", uri="qnew"),
        query("beta3 tag3x", uri="qover"),
        query("unmatched nonsense", uri="qmiss"),
    ]
)


class TestRebuildEquivalence:
    @pytest.mark.parametrize("loaded", [False, True])
    def test_single_decisions_equal_cold_rebuild(self, loaded, tmp_path):
        live = edited_live_engine(loaded, tmp_path)
        cold = MatchEngine(build_index(final_entities()), CONFIG)
        for probe in PROBES:
            a, b = live.match(probe), cold.match(probe)
            assert decision_fields(a) == decision_fields(b), probe.uri

    @pytest.mark.parametrize("loaded", [False, True])
    def test_batch_decisions_equal_cold_rebuild(self, loaded, tmp_path):
        live = edited_live_engine(loaded, tmp_path)
        cold = MatchEngine(build_index(final_entities()), CONFIG)
        ours = live.match_batch(PROBES)
        theirs = cold.match_batch(PROBES)
        assert [decision_fields(d) for d in ours] == [
            decision_fields(d) for d in theirs
        ]

    def test_compaction_bytes_equal_cold_build(self, tmp_path):
        live = edited_live_engine(False, tmp_path)
        compacted = tmp_path / "compacted.idx"
        rebuilt = tmp_path / "rebuilt.idx"
        live.index.compact().save(compacted)
        build_index(final_entities()).save(rebuilt)
        assert compacted.read_bytes() == rebuilt.read_bytes()

    def test_compaction_of_clean_overlay_is_identity(self, tmp_path):
        index = build_index(BASE)
        a, b = tmp_path / "a.idx", tmp_path / "b.idx"
        LiveIndex(index).compact().save(a)
        index.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_compact_then_load_serves_identically(self, tmp_path):
        live = edited_live_engine(False, tmp_path)
        before = [live.match(probe) for probe in PROBES]
        target = tmp_path / "kb2.idx"
        live.compact(target)
        assert not live.index.delta_active
        after = [live.match(probe) for probe in PROBES]
        reloaded = MatchEngine(ResolutionIndex.load(target), CONFIG)
        independent = [reloaded.match(probe) for probe in PROBES]
        for x, y, z in zip(before, after, independent):
            assert decision_fields(x) == decision_fields(y) == decision_fields(z)


# ----------------------------------------------------------------------
# IndexHandle
# ----------------------------------------------------------------------
class TestIndexHandle:
    def test_pins_are_concurrent(self):
        handle = IndexHandle()
        entered = threading.Barrier(3, timeout=5.0)

        def pinned():
            with handle.pin():
                entered.wait()

        with ThreadPoolExecutor(3) as pool:
            list(pool.map(lambda _: pinned(), range(3)))

    def test_exclusive_waits_for_pins_and_blocks_new_ones(self):
        handle = IndexHandle()
        order: list[str] = []
        pin_entered = threading.Event()
        release_pin = threading.Event()

        def reader():
            with handle.pin():
                pin_entered.set()
                release_pin.wait(timeout=5.0)
                order.append("reader-done")

        def writer():
            pin_entered.wait(timeout=5.0)
            with handle.exclusive():
                order.append("writer")
                handle.bump()

        threads = [threading.Thread(target=reader), threading.Thread(target=writer)]
        for thread in threads:
            thread.start()
        pin_entered.wait(timeout=5.0)
        release_pin.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert order == ["reader-done", "writer"]
        assert handle.generation == 1

    def test_generation_stable_within_a_pin(self):
        handle = IndexHandle(generation=7)
        with handle.pin() as generation:
            assert generation == 7

    def test_drain_hammer(self):
        # Readers and writers interleave heavily; invariants: the
        # generation only moves inside exclusive sections, and a pinned
        # read never observes a torn (mid-mutation) value pair.
        handle = IndexHandle()
        state = {"value": 0, "generation": 0}
        stop = threading.Event()
        errors: list[str] = []

        def reader():
            while not stop.is_set():
                with handle.pin():
                    if state["value"] != state["generation"]:
                        errors.append(
                            f"torn read {state['value']} != {state['generation']}"
                        )

        def writer():
            for _ in range(200):
                with handle.exclusive():
                    state["value"] += 1
                    state["generation"] += 1
                    handle.bump()

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        writer_thread.join(timeout=30.0)
        stop.set()
        for thread in readers:
            thread.join(timeout=5.0)
        assert not errors
        assert handle.generation == 200


# ----------------------------------------------------------------------
# LiveEngine serving behaviours
# ----------------------------------------------------------------------
class TestLiveEngine:
    def test_generation_keyed_cache_never_serves_stale(self):
        engine = LiveEngine(build_index(BASE), CONFIG)
        probe = query("alpha3 tag3")
        first = engine.match(probe)
        assert first.kb2_uri == "http://kb2/e3"
        cached = engine.match(probe)
        assert cached.cached
        engine.delete("http://kb2/e3")
        after = engine.match(probe)
        assert not after.cached
        assert after.kb2_uri != "http://kb2/e3"

    def test_swap_invalidates_cached_answers(self, tmp_path):
        target = tmp_path / "kb2.idx"
        build_index(BASE).save(target)
        engine = LiveEngine(ResolutionIndex.load(target), CONFIG)
        engine.index_path = target
        probe = query("alpha3 tag3")
        engine.match(probe)
        # A new index (without e3) arrives on disk; reload must not
        # let the pre-swap cached decision survive.
        build_index([e for e in BASE if e.uri != "http://kb2/e3"]).save(
            tmp_path / "next.idx"
        )
        generation = engine.reload(tmp_path / "next.idx")
        assert generation == engine.generation == engine.handle.generation
        after = engine.match(probe)
        assert not after.cached
        assert after.kb2_uri != "http://kb2/e3"

    def test_upserts_append_to_attached_ledger(self, tmp_path):
        ledger = UpsertLedger(tmp_path / "ops.jsonl")
        engine = LiveEngine(build_index(BASE), CONFIG)
        engine.attach_ledger(ledger)
        engine.upsert(entity(99, "zeta99"))
        engine.delete("http://kb2/e5")
        engine.delete("http://kb2/nonesuch")  # no-op: not recorded
        events = list(UpsertLedger(ledger.path).replay())
        assert [op for op, _ in events] == ["upsert", "delete"]

    def test_ledger_replay_recovers_state(self, tmp_path):
        ledger_path = tmp_path / "ops.jsonl"
        first = LiveEngine(build_index(BASE), CONFIG)
        first.attach_ledger(UpsertLedger(ledger_path))
        first.upsert(entity(99, "zeta99"))
        first.delete("http://kb2/e5")

        second = LiveEngine(build_index(BASE), CONFIG)
        replayed = second.attach_ledger(UpsertLedger(ledger_path))
        assert replayed == 2
        for probe in PROBES:
            assert decision_fields(second.match(probe)) == decision_fields(
                first.match(probe)
            ), probe.uri
        # Replay does not re-append: the ledger still has 2 events.
        assert len(list(UpsertLedger(ledger_path).replay())) == 2

    def test_compact_truncates_ledger_and_survives_restart(self, tmp_path):
        target = tmp_path / "kb2.idx"
        build_index(BASE).save(target)
        engine = LiveEngine(ResolutionIndex.load(target), CONFIG)
        engine.index_path = target
        engine.attach_ledger(UpsertLedger(tmp_path / "ops.jsonl"))
        engine.upsert(entity(99, "zeta99"))
        engine.compact()
        assert list(UpsertLedger(tmp_path / "ops.jsonl").replay()) == []
        # A restart over the compacted file + empty ledger sees the edit.
        fresh = LiveEngine(ResolutionIndex.load(target), CONFIG)
        fresh.attach_ledger(UpsertLedger(tmp_path / "ops.jsonl"))
        assert fresh.match(query("zeta99 tag99")).kb2_uri == "http://kb2/e99"

    def test_mutations_refresh_gauges_and_stats(self):
        engine = LiveEngine(build_index(BASE), CONFIG)
        engine.upsert(entity(99, "zeta99"))
        engine.upsert(entity(99, "eta99"))
        engine.delete("http://kb2/e5")
        gauges = engine.recorder.gauges()
        assert gauges["index.generation"] == 3
        assert gauges["live.delta_entities"] == 1
        assert gauges["live.tombstones"] == 2
        live = engine.stats()["live"]
        assert live["generation"] == 3
        assert live["upserts"] == 2
        assert live["deletes"] == 1
        assert live["swaps"] == 0

    def test_provenance_carries_generation(self):
        config = CONFIG.with_options(provenance_sample_rate=1.0)
        engine = LiveEngine(build_index(BASE), config)
        engine.upsert(entity(99, "zeta99"))
        decision = engine.match(query("zeta99 tag99"))
        assert decision.provenance is not None
        assert decision.provenance.generation == 1
        assert json.loads(json.dumps(decision.provenance.to_json()))[
            "generation"
        ] == 1

    def test_reload_without_a_path_raises(self):
        engine = LiveEngine(build_index(BASE), CONFIG)
        with pytest.raises(ValueError, match="index path"):
            engine.reload()

    def test_swap_hammer_zero_drop(self, tmp_path):
        # Queries stream from 4 threads while compactions (each a full
        # drain + flip) run in between; every query must come back with
        # a correct, never-stale answer and nothing may error.
        target = tmp_path / "kb2.idx"
        build_index(BASE).save(target)
        engine = LiveEngine(ResolutionIndex.load(target), CONFIG)
        engine.index_path = target
        errors: list[str] = []
        stop = threading.Event()
        probe = query("alpha1 tag1")

        def querier():
            while not stop.is_set():
                try:
                    decision = engine.match(probe)
                except Exception as error:  # noqa: BLE001 - the test asserts
                    errors.append(repr(error))
                    return
                if decision.kb2_uri != "http://kb2/e1":
                    errors.append(f"wrong answer {decision.kb2_uri}")
                    return

        threads = [threading.Thread(target=querier) for _ in range(4)]
        for thread in threads:
            thread.start()
        for round_number in range(5):
            engine.upsert(entity(90 + round_number, f"omega{round_number}"))
            engine.compact()
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not errors
        assert engine.swap_count == 5
        assert not engine.index.delta_active
