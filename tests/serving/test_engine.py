"""MatchEngine behaviour: single/batch agreement, caching, counters."""

import math
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.config import MinoanERConfig
from repro.kb.entity import EntityDescription
from repro.kb.knowledge_base import KnowledgeBase
from repro.serving import LRUCache, MatchEngine, ResolutionIndex


@pytest.fixture(scope="module")
def mini_engine(mini_pair):
    index = ResolutionIndex.build(mini_pair.kb2)
    return MatchEngine(index)


class TestSingleEqualsBatchOfOne:
    def test_every_entity_agrees(self, mini_pair, mini_engine):
        for entity in mini_pair.kb1:
            single = mini_engine.match(entity)
            batched = mini_engine.match_batch([entity])
            assert len(batched) == 1
            assert single == batched[0], entity.uri

    def test_agreement_with_dynamic_pruning(self, mini_pair):
        index = ResolutionIndex.build(
            mini_pair.kb2, MinoanERConfig(dynamic_pruning=True)
        )
        engine = MatchEngine(index)
        for entity in list(mini_pair.kb1)[:25]:
            assert engine.match(entity) == engine.match_batch([entity])[0]

    def test_agreement_with_rules_disabled(self, mini_pair):
        index = ResolutionIndex.build(
            mini_pair.kb2,
            MinoanERConfig(use_name_rule=False, use_value_rule=False),
        )
        engine = MatchEngine(index)
        for entity in list(mini_pair.kb1)[:25]:
            assert engine.match(entity) == engine.match_batch([entity])[0]

    def test_agreement_without_reciprocity(self, mini_pair):
        index = ResolutionIndex.build(
            mini_pair.kb2, MinoanERConfig(use_reciprocity=False)
        )
        engine = MatchEngine(index)
        for entity in list(mini_pair.kb1)[:25]:
            assert engine.match(entity) == engine.match_batch([entity])[0]


class TestMatchSemantics:
    def test_exclusive_name_matches_by_r1(self):
        kb2 = KnowledgeBase(
            [EntityDescription("t1", [("label", "unique shared name")])], "t"
        )
        engine = MatchEngine(ResolutionIndex.build(kb2))
        decision = engine.match(
            EntityDescription("q", [("name", "unique shared name")])
        )
        assert decision.matched
        assert decision.kb2_uri == "t1"
        assert decision.rule == "R1"
        assert math.isinf(decision.score)

    def test_no_shared_tokens_means_no_match(self, mini_engine):
        decision = mini_engine.match(
            EntityDescription("q", [("label", "zzzzz-nonexistent-qqqq")])
        )
        assert not decision.matched
        assert decision.rule is None
        assert decision.score is None
        assert decision.candidates == 0

    def test_entity_without_literals(self, mini_engine):
        decision = mini_engine.match(EntityDescription("q", []))
        assert not decision.matched

    def test_empty_batch(self, mini_engine):
        assert mini_engine.match_batch([]) == []

    def test_empty_index(self):
        engine = MatchEngine(ResolutionIndex.build(KnowledgeBase([], "empty")))
        decision = engine.match(EntityDescription("q", [("a", "b")]))
        assert not decision.matched

    def test_decision_uris_consistent(self, mini_pair, mini_engine):
        for decision in mini_engine.match_batch(list(mini_pair.kb1)[:10]):
            if decision.matched:
                assert mini_engine.index.uris2[decision.kb2_id] == decision.kb2_uri


class TestCacheBehaviour:
    def test_second_lookup_is_a_hit(self, mini_pair):
        engine = MatchEngine(ResolutionIndex.build(mini_pair.kb2))
        entity = mini_pair.kb1[0]
        first = engine.match(entity)
        second = engine.match(entity)
        assert not first.cached
        assert second.cached
        assert first == second  # cached flag excluded from equality
        assert engine.cache.stats()["hits"] == 1

    def test_content_keyed_across_uris(self, mini_pair):
        engine = MatchEngine(ResolutionIndex.build(mini_pair.kb2))
        entity = mini_pair.kb1[0]
        engine.match(entity)
        twin = EntityDescription("different-uri", entity.pairs)
        decision = engine.match(twin)
        assert decision.cached
        assert decision.query_uri == "different-uri"

    def test_cache_disabled(self, mini_pair):
        config = MinoanERConfig(serving_cache_size=0)
        engine = MatchEngine(ResolutionIndex.build(mini_pair.kb2), config)
        entity = mini_pair.kb1[0]
        assert not engine.match(entity).cached
        assert not engine.match(entity).cached

    def test_batch_bypasses_cache(self, mini_pair):
        engine = MatchEngine(ResolutionIndex.build(mini_pair.kb2))
        entity = mini_pair.kb1[0]
        engine.match_batch([entity])
        assert len(engine.cache) == 0

    def test_external_cache_shared(self, mini_pair):
        index = ResolutionIndex.build(mini_pair.kb2)
        shared = LRUCache(16)
        first = MatchEngine(index, cache=shared)
        second = MatchEngine(index, cache=shared)
        entity = mini_pair.kb1[0]
        first.match(entity)
        assert second.match(entity).cached


class TestStats:
    def test_counters_accumulate(self, mini_pair):
        engine = MatchEngine(ResolutionIndex.build(mini_pair.kb2))
        entities = list(mini_pair.kb1)[:6]
        for entity in entities[:3]:
            engine.match(entity)
        engine.match_batch(entities[3:])
        stats = engine.stats()
        assert stats["queries"] == 6
        assert stats["batches"] == 1
        assert stats["batch_queries"] == 3
        assert 0 <= stats["matched"] <= 6
        assert stats["latency_p50_ms"] >= 0
        assert stats["latency_p95_ms"] >= stats["latency_p50_ms"] or (
            stats["latency_p95_ms"] >= 0
        )
        assert stats["candidates_mean"] <= stats["candidates_max"]
        assert stats["cache"]["misses"] == 3

    def test_stats_thread_safe(self, mini_pair):
        engine = MatchEngine(ResolutionIndex.build(mini_pair.kb2))
        entities = list(mini_pair.kb1)

        def work(offset: int) -> None:
            for i in range(30):
                engine.match(entities[(offset + i) % len(entities)])

        with ThreadPoolExecutor(max_workers=6) as pool:
            for future in [pool.submit(work, w * 11) for w in range(6)]:
                future.result()
        stats = engine.stats()
        assert stats["queries"] == 180
        cache = stats["cache"]
        assert cache["hits"] + cache["misses"] == 180

    def test_repr(self, mini_pair):
        engine = MatchEngine(ResolutionIndex.build(mini_pair.kb2))
        assert "MatchEngine" in repr(engine)
        assert str(len(mini_pair.kb2)) in repr(engine)

    def test_metrics_land_in_ambient_recorder(self, mini_pair):
        from repro.obs import Recorder, use_recorder

        index = ResolutionIndex.build(mini_pair.kb2)
        recorder = Recorder()
        with use_recorder(recorder):
            engine = MatchEngine(index)
        entities = list(mini_pair.kb1)[:4]
        for entity in entities[:2]:
            engine.match(entity)
        engine.match_batch(entities[2:])
        assert engine.recorder is recorder
        counters = recorder.counters()
        assert counters["serving.queries"] == 4
        assert counters["serving.batches"] == 1
        assert counters["serving.batch_queries"] == 2
        assert counters["serving.cache.misses"] == 2
        assert recorder.histogram("serving.latency_ms").count == 3
        assert recorder.histogram("serving.candidates").count == 4
        # stats() is a derived view over the same recorder.
        assert engine.stats()["queries"] == 4

    def test_private_recorder_without_ambient(self, mini_pair):
        from repro.obs import NULL_RECORDER

        engine = MatchEngine(ResolutionIndex.build(mini_pair.kb2))
        assert engine.recorder is not NULL_RECORDER
        engine.match(next(iter(mini_pair.kb1)))
        assert engine.stats()["queries"] == 1
