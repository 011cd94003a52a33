"""The dict-of-dicts reference of Algorithm 1's value and neighbor passes.

The oracle the kernel tests compare :mod:`repro.kernels` against (the
python conformance oracle of every kernel entry point is
``tests/kernels/python_backend.py``).  Plain nested dicts, one block or
one retained edge at a time, in the order the paper's Algorithm 1
states it: :func:`build_blocking_graph` here returns a graph
bit-identical to :func:`repro.graph.construction.build_blocking_graph`.
Tests only; the library always runs the kernels.
"""

from __future__ import annotations

import math

from repro.blocking.base import BlockCollection
from repro.graph.blocking_graph import CandidateList, DisjunctiveBlockingGraph
from repro.graph.construction import name_evidence
from repro.graph.pruning import ADAPTIVE_CUT, adaptive_candidates, top_k_candidates
from repro.kb.statistics import KBStatistics


def accumulate_beta(blocks: BlockCollection, n1: int) -> list[dict[int, float]]:
    """Accumulate ``beta`` (valueSim) for every co-occurring pair.

    Returns, per KB1 entity, a dict ``KB2 id -> beta``.  Cost is exactly
    the number of comparisons suggested by ``blocks`` (``||B_T||``),
    which Block Purging has already bounded.
    """
    beta: list[dict[int, float]] = [dict() for _ in range(n1)]
    for block in blocks:
        weight = 1.0 / math.log2(block.comparisons + 1.0)
        for eid1 in block.side1:
            row = beta[eid1]
            for eid2 in block.side2:
                row[eid2] = row.get(eid2, 0.0) + weight
    return beta


def transpose_beta(beta_rows: list[dict[int, float]], n2: int) -> list[dict[int, float]]:
    """Per-KB2-entity view of the same ``beta`` weights."""
    columns: list[dict[int, float]] = [dict() for _ in range(n2)]
    for eid1, row in enumerate(beta_rows):
        for eid2, weight in row.items():
            columns[eid2][eid1] = weight
    return columns


def value_evidence(
    blocks: BlockCollection,
    n1: int,
    n2: int,
    k: int,
    select=top_k_candidates,
) -> tuple[list[CandidateList], list[CandidateList]]:
    """Top-K value candidates per node on both sides (lines 10-19)."""
    beta_rows = accumulate_beta(blocks, n1)
    beta_columns = transpose_beta(beta_rows, n2)
    side1 = [select(row, k) for row in beta_rows]
    side2 = [select(column, k) for column in beta_columns]
    return side1, side2


def retained_beta_edges(
    value_candidates_1: list[CandidateList],
    value_candidates_2: list[CandidateList],
) -> dict[tuple[int, int], float]:
    """Undirected union of the directed top-K ``beta`` edges.

    ``beta`` is symmetric, so an edge kept by either endpoint carries
    the same weight; the union avoids counting a pair twice during
    ``gamma`` propagation (each neighbor pair contributes once, as in
    Example 3.4).
    """
    edges: dict[tuple[int, int], float] = {}
    for eid1, candidates in enumerate(value_candidates_1):
        for eid2, weight in candidates:
            edges[(eid1, eid2)] = weight
    for eid2, candidates in enumerate(value_candidates_2):
        for eid1, weight in candidates:
            edges[(eid1, eid2)] = weight
    return edges


def neighbor_evidence(
    beta_edges: dict[tuple[int, int], float],
    stats1: KBStatistics,
    stats2: KBStatistics,
    k: int,
    select=top_k_candidates,
) -> tuple[list[CandidateList], list[CandidateList]]:
    """Top-K neighbor candidates per node (lines 20-33).

    Every retained ``beta`` edge ``(i, j)`` is evidence for every pair
    ``(in_i, in_j)`` of their top in-neighbors: ``gamma[in_i][in_j] +=
    beta[i][j]``.  Summed over all retained edges this reconstructs
    ``neighborNSim`` restricted to value-similar neighbor pairs.
    """
    n1, n2 = len(stats1.kb), len(stats2.kb)
    gamma_rows: list[dict[int, float]] = [dict() for _ in range(n1)]
    for (eid1, eid2), weight in beta_edges.items():
        in1 = stats1.top_in_neighbors(eid1)
        if not in1:
            continue
        in2 = stats2.top_in_neighbors(eid2)
        if not in2:
            continue
        for source in in1:
            row = gamma_rows[source]
            for target in in2:
                row[target] = row.get(target, 0.0) + weight
    gamma_columns: list[dict[int, float]] = [dict() for _ in range(n2)]
    for source, row in enumerate(gamma_rows):
        for target, weight in row.items():
            gamma_columns[target][source] = weight
    side1 = [select(row, k) for row in gamma_rows]
    side2 = [select(column, k) for column in gamma_columns]
    return side1, side2


def build_blocking_graph(
    stats1: KBStatistics,
    stats2: KBStatistics,
    name_blocks: BlockCollection,
    token_blocks: BlockCollection,
    k: int = 15,
    dynamic_pruning: bool = False,
) -> DisjunctiveBlockingGraph:
    """:func:`repro.graph.construction.build_blocking_graph` over the
    dict passes above."""
    n1, n2 = len(stats1.kb), len(stats2.kb)
    if dynamic_pruning:
        gap_ratio, minimum = ADAPTIVE_CUT

        def select(scores, limit):
            return adaptive_candidates(scores, limit, gap_ratio, minimum)
    else:
        select = top_k_candidates
    names_1, names_2 = name_evidence(name_blocks)
    value_1, value_2 = value_evidence(token_blocks, n1, n2, k, select=select)
    beta_edges = retained_beta_edges(value_1, value_2)
    neighbor_1, neighbor_2 = neighbor_evidence(beta_edges, stats1, stats2, k, select=select)
    return DisjunctiveBlockingGraph(
        n1=n1,
        n2=n2,
        name_matches_1=names_1,
        name_matches_2=names_2,
        value_candidates_1=value_1,
        value_candidates_2=value_2,
        neighbor_candidates_1=neighbor_1,
        neighbor_candidates_2=neighbor_2,
    )
