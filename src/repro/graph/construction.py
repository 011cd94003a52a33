"""Disjunctive blocking graph construction (Algorithm 1).

Three evidence passes, each independent until the final assembly:

1. **Name evidence** -- every name block containing exactly one entity
   per KB yields an ``alpha = 1`` edge (lines 5-9).
2. **Value evidence** -- ``beta`` weights accumulate over token blocks:
   each block ``b`` contributes ``1 / log2(|b1|*|b2| + 1)`` to every
   cross pair it contains, which reconstructs ``valueSim`` because
   ``|b1| = EF_1(t)`` and ``|b2| = EF_2(t)`` (lines 10-19).  Each node
   then keeps its top-K candidates by ``beta``.
3. **Neighbor evidence** -- every *retained* ``beta`` edge ``(i, j)``
   adds its weight to ``gamma`` of every pair of the entities' top
   in-neighbors (lines 20-27), after which each node keeps its top-K
   candidates by ``gamma`` (lines 28-33).

The returned graph is directed: each side's candidate lists were pruned
independently.
"""

from __future__ import annotations

import math

from repro.blocking.base import BlockCollection
from repro.graph.blocking_graph import CandidateList, DisjunctiveBlockingGraph
from repro.graph.pruning import adaptive_candidates, top_k_candidates
from repro.kb.statistics import KBStatistics


def name_evidence(blocks: BlockCollection) -> tuple[dict[int, int], dict[int, int]]:
    """``alpha = 1`` edges from singleton-pair name blocks.

    Returns forward (KB1 id -> KB2 id) and reverse mappings.  If an
    entity occurs in several singleton name blocks with different
    partners (it has several exclusive names), the first block in
    collection order wins, keeping the result deterministic.
    """
    forward: dict[int, int] = {}
    reverse: dict[int, int] = {}
    for block in blocks:
        if block.is_singleton_pair:
            eid1, eid2 = block.side1[0], block.side2[0]
            if eid1 not in forward and eid2 not in reverse:
                forward[eid1] = eid2
                reverse[eid2] = eid1
    return forward, reverse


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


def _kernel_evidence(
    stats1: KBStatistics,
    stats2: KBStatistics,
    token_blocks: BlockCollection,
    k: int,
    dynamic_pruning: bool,
    pruning_gap_ratio: float,
):
    """Value + neighbor evidence via the array kernel layer.

    Bit-identical to the dict reference path (see
    :mod:`repro.kernels`); only the data layout and wall-clock differ.
    """
    from repro.graph.pruning import DEFAULT_ADAPTIVE_MINIMUM
    from repro.kernels import InternedBlocks, get_backend

    impl = get_backend()
    n1, n2 = len(stats1.kb), len(stats2.kb)
    cut = (pruning_gap_ratio, DEFAULT_ADAPTIVE_MINIMUM) if dynamic_pruning else None
    interned = InternedBlocks.from_blocks(token_blocks, n1, n2)
    value_1, value_2 = impl.value_topk(interned, k, cut)
    edges = impl.retained_edges(value_1, value_2)
    neighbor_1, neighbor_2 = impl.gamma_topk(
        edges, stats1.in_neighbor_csr(), stats2.in_neighbor_csr(), k, cut
    )
    return value_1, value_2, neighbor_1, neighbor_2


def build_blocking_graph(
    stats1: KBStatistics,
    stats2: KBStatistics,
    name_blocks: BlockCollection,
    token_blocks: BlockCollection,
    k: int = 15,
    dynamic_pruning: bool = False,
    pruning_gap_ratio: float = 0.2,
    kernels: bool = False,
) -> DisjunctiveBlockingGraph:
    """Run Algorithm 1: weight and prune the disjunctive blocking graph.

    Parameters
    ----------
    stats1, stats2:
        Per-KB statistics (they carry the KBs, the top-N relation
        configuration and the in-neighbor maps).
    name_blocks, token_blocks:
        Output of :func:`repro.blocking.name_blocking.name_blocks` and
        (purged) :func:`repro.blocking.token_blocking.token_blocks`.
    k:
        ``K``: candidates kept per node per evidence type (paper
        default 15).
    dynamic_pruning / pruning_gap_ratio:
        Use the adaptive per-node candidate cut instead of a fixed
        top-K (the paper's future-work idea; see
        :func:`repro.graph.pruning.adaptive_candidates`).
    kernels:
        Run the hot path on the array kernels of :mod:`repro.kernels`
        (what the pipeline does); ``False`` runs this module's
        dict-of-dicts reference code, the oracle the kernel tests
        compare against.  Both return a bit-identical graph.
    """
    n1, n2 = len(stats1.kb), len(stats2.kb)
    names_1, names_2 = name_evidence(name_blocks)
    if kernels:
        value_1, value_2, neighbor_1, neighbor_2 = _kernel_evidence(
            stats1, stats2, token_blocks, k, dynamic_pruning, pruning_gap_ratio
        )
    else:
        if dynamic_pruning:
            def select(scores, limit):
                return adaptive_candidates(scores, limit, gap_ratio=pruning_gap_ratio)
        else:
            select = top_k_candidates
        value_1, value_2 = value_evidence(token_blocks, n1, n2, k, select=select)
        beta_edges = retained_beta_edges(value_1, value_2)
        neighbor_1, neighbor_2 = neighbor_evidence(
            beta_edges, stats1, stats2, k, select=select
        )
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
