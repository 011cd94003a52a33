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

from repro.blocking.base import BlockCollection
from repro.graph.blocking_graph import DisjunctiveBlockingGraph
from repro.graph.pruning import ADAPTIVE_CUT
from repro.kb.statistics import KBStatistics
from repro.kernels import InternedBlocks, get_backend


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


def build_blocking_graph(
    stats1: KBStatistics,
    stats2: KBStatistics,
    name_blocks: BlockCollection,
    token_blocks: BlockCollection,
    k: int = 15,
    dynamic_pruning: bool = False,
) -> DisjunctiveBlockingGraph:
    """Run Algorithm 1: weight and prune the disjunctive blocking graph.

    Value and neighbor evidence run on the array kernels of
    :mod:`repro.kernels`; the dict-of-dicts form of the same passes is
    the tests' oracle (``tests/graph/dict_reference.py``), and the two
    build a bit-identical graph.

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
    dynamic_pruning:
        Cut each node's top-K list at its first weight gap
        (:data:`repro.graph.pruning.ADAPTIVE_CUT`, the paper's
        future-work idea) instead of keeping all K.
    """
    impl = get_backend()
    n1, n2 = len(stats1.kb), len(stats2.kb)
    cut = ADAPTIVE_CUT if dynamic_pruning else None
    names_1, names_2 = name_evidence(name_blocks)
    interned = InternedBlocks.from_blocks(token_blocks, n1, n2)
    value_1, value_2 = impl.value_topk(interned, k, cut)
    edges = impl.retained_edges(value_1, value_2)
    neighbor_1, neighbor_2 = impl.gamma_topk(
        edges, stats1.in_neighbor_csr(), stats2.in_neighbor_csr(), k, cut
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
