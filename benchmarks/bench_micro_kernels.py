"""Micro-benchmarks of the pipeline's hot kernels.

Unlike the table/figure benches (one-shot experiment regenerations),
these measure the kernels that dominate the pipeline's run time with
proper repetition, so performance regressions show up in the
pytest-benchmark comparison output (run from the repository root, which
makes the tests' dict reference importable):

* ``accumulate_beta`` -- the O(||B_T||) value-evidence pass;
* ``neighbor_evidence`` -- gamma propagation through in-neighbors;
* ``retained_beta_edges`` -- the undirected union of pruned beta edges;
* ``top_k_candidates`` -- per-node pruning;
* ``unique_mapping_clustering`` -- the final 1-1 assignment;
* Algorithm 2 -- the array matcher against its per-node oracle
  (``tests/core/matcher_reference.py``);
* ``KnowledgeBase`` construction -- tokenisation + index building;
* the numpy kernel (:mod:`repro.kernels`) counterparts of the beta /
  fused value / gamma passes, so the dict-vs-kernel gap is visible in
  one pytest-benchmark run (likewise the two matchers);
* the grouped top-K and the retained-edge union of the batch kernels at
  a serving batch's shape (1000 queries x 100k KB2 columns);
* the single-query row collapse (``accumulate_row``) at one served
  query's shape (~5 posting slices, ~760 ids).
"""

import random

import numpy as np
import pytest

from repro.blocking.purging import purge_blocks
from repro.blocking.token_blocking import token_blocks
from repro.blocking.name_blocking import name_blocks
from repro.clustering.unique_mapping import unique_mapping_clustering
from repro.core.matcher import NonIterativeMatcher
from repro.graph.construction import build_blocking_graph
from repro.graph.pruning import top_k_candidates
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.statistics import KBStatistics
from repro.kernels import InternedBlocks, numpy_backend
from tests.core.matcher_reference import reference_match
from tests.graph.dict_reference import (
    accumulate_beta,
    neighbor_evidence,
    retained_beta_edges,
    value_evidence,
)


def test_kb_construction(benchmark, profiles):
    pair = profiles["bbc_dbpedia"]
    entities = list(pair.kb2.entities)
    result = benchmark(lambda: KnowledgeBase(entities, name="rebuild"))
    assert len(result) == len(entities)


def test_beta_accumulation(benchmark, profiles):
    pair = profiles["bbc_dbpedia"]
    blocks = purge_blocks(
        token_blocks(pair.kb1, pair.kb2), cartesian=len(pair.kb1) * len(pair.kb2)
    )
    rows = benchmark(lambda: accumulate_beta(blocks, len(pair.kb1)))
    assert any(rows)


def test_gamma_propagation(benchmark, profiles):
    pair = profiles["bbc_dbpedia"]
    stats1 = KBStatistics(pair.kb1)
    stats2 = KBStatistics(pair.kb2)
    blocks = purge_blocks(
        token_blocks(pair.kb1, pair.kb2), cartesian=len(pair.kb1) * len(pair.kb2)
    )
    value_1, value_2 = value_evidence(blocks, len(pair.kb1), len(pair.kb2), 15)
    edges = retained_beta_edges(value_1, value_2)
    side1, side2 = benchmark(lambda: neighbor_evidence(edges, stats1, stats2, 15))
    assert len(side1) == len(pair.kb1)


def test_retained_edges(benchmark, profiles):
    pair = profiles["bbc_dbpedia"]
    blocks = purge_blocks(
        token_blocks(pair.kb1, pair.kb2), cartesian=len(pair.kb1) * len(pair.kb2)
    )
    value_1, value_2 = value_evidence(blocks, len(pair.kb1), len(pair.kb2), 15)
    edges = benchmark(lambda: retained_beta_edges(value_1, value_2))
    assert edges


def test_value_evidence_fused_dict(benchmark, profiles):
    """Dict-reference baseline of the fused transpose + top-K pass."""
    pair = profiles["bbc_dbpedia"]
    blocks = purge_blocks(
        token_blocks(pair.kb1, pair.kb2), cartesian=len(pair.kb1) * len(pair.kb2)
    )
    side1, side2 = benchmark(
        lambda: value_evidence(blocks, len(pair.kb1), len(pair.kb2), 15)
    )
    assert len(side1) == len(pair.kb1)


@pytest.fixture(scope="module")
def interned_bbc(profiles):
    pair = profiles["bbc_dbpedia"]
    blocks = purge_blocks(
        token_blocks(pair.kb1, pair.kb2), cartesian=len(pair.kb1) * len(pair.kb2)
    )
    return InternedBlocks.from_blocks(blocks, len(pair.kb1), len(pair.kb2))


def test_kernel_beta_accumulation(benchmark, interned_bbc):
    rows = benchmark(lambda: numpy_backend.accumulate_beta(interned_bbc))
    assert any(rows)


def test_kernel_value_topk(benchmark, interned_bbc):
    """Fused beta + transpose + top-K over the interned arrays."""
    side1, side2 = benchmark(lambda: numpy_backend.value_topk(interned_bbc, 15))
    assert len(side1) == interned_bbc.n1


def test_kernel_gamma_topk(benchmark, profiles, interned_bbc):
    """Fused gamma propagation + transpose + top-K over CSR adjacency."""
    pair = profiles["bbc_dbpedia"]
    stats1 = KBStatistics(pair.kb1)
    stats2 = KBStatistics(pair.kb2)
    value_1, value_2 = numpy_backend.value_topk(interned_bbc, 15)
    edges = numpy_backend.retained_edges(value_1, value_2)
    side1, side2 = benchmark(
        lambda: numpy_backend.gamma_topk(
            edges, stats1.in_neighbor_csr(), stats2.in_neighbor_csr(), 15
        )
    )
    assert len(side1) == interned_bbc.n1


def test_block_interning(benchmark, profiles):
    pair = profiles["bbc_dbpedia"]
    blocks = purge_blocks(
        token_blocks(pair.kb1, pair.kb2), cartesian=len(pair.kb1) * len(pair.kb2)
    )
    interned = benchmark(lambda: InternedBlocks.from_blocks(blocks, len(pair.kb1), len(pair.kb2)))
    assert interned.n_blocks == len(blocks)


def test_top_k_pruning(benchmark):
    rng = random.Random(3)
    rows = [
        {rng.randrange(5000): rng.random() * 3 for _ in range(rng.randrange(1, 120))}
        for _ in range(2000)
    ]
    result = benchmark(lambda: [top_k_candidates(row, 15) for row in rows])
    assert len(result) == len(rows)


def test_unique_mapping(benchmark):
    rng = random.Random(4)
    scored = [
        (rng.randrange(3000), rng.randrange(3000), rng.random()) for _ in range(40_000)
    ]
    matches = benchmark(lambda: unique_mapping_clustering(scored))
    assert matches


@pytest.fixture(scope="module")
def fresh_bbc_graph(profiles):
    """Builds a new kernel-built ``bbc_dbpedia`` graph per call: a graph
    caches the tuples and out-sets read from it, so each timed round
    needs its own."""
    pair = profiles["bbc_dbpedia"]
    stats1, stats2 = KBStatistics(pair.kb1), KBStatistics(pair.kb2)
    names = name_blocks(stats1, stats2)
    tokens = purge_blocks(
        token_blocks(pair.kb1, pair.kb2), cartesian=len(pair.kb1) * len(pair.kb2)
    )
    return lambda: ((build_blocking_graph(stats1, stats2, names, tokens),), {})


def test_matcher_arrays(benchmark, fresh_bbc_graph):
    """Algorithm 2 as array passes over the graph's CSR lists."""
    matcher = NonIterativeMatcher()
    result = benchmark.pedantic(matcher.match, setup=fresh_bbc_graph, rounds=5)
    assert result.matches


def test_matcher_per_node(benchmark, fresh_bbc_graph):
    """The per-node oracle of the same decisions."""
    result = benchmark.pedantic(reference_match, setup=fresh_bbc_graph, rounds=5)
    assert result.matches


SERVING_QUERIES = 1000
SERVING_COLUMNS = 100_000


@pytest.fixture(scope="module")
def batch_pairs():
    """A serving batch's collapsed ``beta`` pairs: ~1M distinct (query,
    KB2 column) pairs in ``(query, column)`` order, as ``_accumulate_pairs``
    returns them, with scores from 200 distinct values."""
    rng = np.random.default_rng(7)
    keys = np.unique(rng.integers(0, SERVING_QUERIES * SERVING_COLUMNS, 1_000_000))
    rows, cols = np.divmod(keys, SERVING_COLUMNS)
    scores = rng.choice(rng.uniform(0.05, 6.0, 200), size=len(keys))
    return rows, cols, scores


def _both_sides(rows, cols, scores):
    """Both sides' top-15 lists, as ``value_topk`` ranks them."""
    ranks = numpy_backend._score_ranks(scores)
    side1 = numpy_backend._topk_grouped(rows, cols, scores, SERVING_QUERIES, 15, None, ranks=ranks)
    side2 = numpy_backend._topk_grouped(cols, rows, scores, SERVING_COLUMNS, 15, None, ranks=ranks)
    return side1, side2


def test_kernel_topk_grouped(benchmark, batch_pairs):
    """Grouped top-K of both sides of a serving batch: one shared score
    ranking, then one packed-key sort per side."""
    side1, side2 = benchmark(lambda: _both_sides(*batch_pairs))
    assert len(side1) == SERVING_QUERIES and len(side2) == SERVING_COLUMNS


def test_kernel_retained_edges(benchmark, batch_pairs):
    """Undirected union of a serving batch's two top-K sides."""
    side1, side2 = _both_sides(*batch_pairs)
    sources, _, _ = benchmark(lambda: numpy_backend.retained_edges(side1, side2))
    assert len(sources) >= 15 * SERVING_QUERIES


@pytest.fixture(scope="module")
def query_row():
    """One served query's weighted postings: ~5 retained tokens, ~760
    posting ids in all, as int32 slices of one mapped ``posting_ids``
    section (the shape of a ``serve_frozen`` query on the 100k index)."""
    rng = np.random.default_rng(11)
    sizes = (300, 8, 8, 40, 404)
    section = np.concatenate(
        [np.sort(rng.choice(SERVING_COLUMNS, size, replace=False)) for size in sizes]
    ).astype("<i4")
    bounds = np.concatenate(([0], np.cumsum(sizes))).tolist()
    weights = rng.uniform(0.1, 1.0, len(sizes)).tolist()
    return [(weight, section[lo:hi]) for weight, lo, hi in zip(weights, bounds, bounds[1:])]


def test_kernel_accumulate_row(benchmark, query_row):
    """Collapse one query's ``beta`` row: one packed value sort + ``bincount``."""
    ids, sums = benchmark(lambda: numpy_backend.accumulate_row(query_row, as_arrays=True))
    assert len(ids) == len(sums) <= sum(len(chunk) for _, chunk in query_row)
