"""A single query is profiled in closed form: ``match`` builds no KB.

Every tier's ``match`` runs the one ``MatchEngine._lookup``.  With
``KnowledgeBase`` and ``KBStatistics`` made to raise, each tier must
still answer every query, and answer it as ``match_batch([e])`` does
once they are back.
"""

import pytest

from repro.core.config import MinoanERConfig
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.statistics import KBStatistics
from repro.serving import LiveEngine, MatchEngine, ResolutionIndex
from repro.sharding import InlineReplica, LiveShardRouter, ShardPlanner, ShardRouter, ShardWorker

CONFIG = MinoanERConfig(serving_cache_size=0)


def inline_replicas(index, shards=2):
    return [
        [InlineReplica(ShardWorker(MatchEngine(shard, CONFIG)))]
        for shard in ShardPlanner(shards).plan(index)
    ]


TIERS = {
    "MatchEngine": lambda index: MatchEngine(index, CONFIG),
    "LiveEngine": lambda index: LiveEngine(index, CONFIG),
    "ShardRouter": lambda index: ShardRouter(index, inline_replicas(index), CONFIG),
    "LiveShardRouter": lambda index: LiveShardRouter(index, inline_replicas(index), CONFIG),
}


def refuse(*args, **kwargs):
    raise AssertionError("a single query built a query-side KB")


@pytest.fixture(scope="module")
def index(mini_pair):
    return ResolutionIndex.build(mini_pair.kb2, CONFIG)


@pytest.mark.parametrize("tier", TIERS)
def test_match_constructs_no_knowledge_base(tier, index, mini_pair, monkeypatch):
    engine = TIERS[tier](index)
    queries = list(mini_pair.kb1)[:30]
    try:
        with monkeypatch.context() as patched:
            patched.setattr(KnowledgeBase, "__init__", refuse)
            patched.setattr(KBStatistics, "__init__", refuse)
            singles = [engine.match(query) for query in queries]
            tokens = [engine.value_tokens(query) for query in queries]
        assert any(decision.matched for decision in singles)
        assert any(tokens)
        for query, single in zip(queries, singles):
            assert single == engine.match_batch([query])[0], query.uri
    finally:
        close = getattr(engine, "close", None)
        if close is not None:
            close()
