"""Top-K candidate pruning for the blocking graph.

Section 3.3: "we keep for each node the K edges with the highest beta
and the K edges with the highest gamma weights, while pruning edges with
trivial weights".  Pruning turns the undirected weighted graph into a
directed one -- node ``v_i`` may keep an edge to ``v_j`` that ``v_j``
does not keep back, which is exactly the asymmetry rule R4 exploits.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Mapping

DEFAULT_ADAPTIVE_MINIMUM = 3
"""Default floor of candidates kept by the adaptive gap cut."""

ADAPTIVE_CUT = (0.2, DEFAULT_ADAPTIVE_MINIMUM)
"""The ``(gap_ratio, minimum)`` of :func:`adaptive_cut` that
``config.dynamic_pruning`` switches on, in every pipeline and kernel."""


def _rank_key(item: tuple[int, float]) -> tuple[float, int]:
    return (-item[1], item[0])


def top_k_candidates(scores: Mapping[int, float], k: int) -> tuple[tuple[int, float], ...]:
    """The ``k`` highest-scoring candidates, score-descending.

    Zero and negative scores are trivial weights and never retained.
    Ties break on ascending candidate id so results are deterministic.

    >>> top_k_candidates({3: 1.0, 1: 2.0, 2: 1.0, 9: 0.0}, 2)
    ((1, 2.0), (2, 1.0))
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    positive = [(candidate, score) for candidate, score in scores.items() if score > 0.0]
    best = heapq.nsmallest(k, positive, key=_rank_key)
    return tuple(best)


def top_k_pairs(pairs: Iterable[tuple[int, float]], k: int) -> tuple[tuple[int, float], ...]:
    """:func:`top_k_candidates` over already-materialised ``(id, score)``
    pairs with strictly positive scores.

    This is the bounded-heap selection used by the array kernels
    (``heapq.nsmallest`` keeps at most ``k`` items in memory); the
    ranking key is shared with :func:`top_k_candidates` so both paths
    break ties identically.

    >>> top_k_pairs([(3, 1.0), (1, 2.0), (2, 1.0)], 2)
    ((1, 2.0), (2, 1.0))
    """
    return tuple(heapq.nsmallest(k, pairs, key=_rank_key))


def adaptive_cut(
    ranked: tuple[tuple[int, float], ...],
    gap_ratio: float = 0.2,
    minimum: int = DEFAULT_ADAPTIVE_MINIMUM,
) -> tuple[tuple[int, float], ...]:
    """Cut an already-ranked candidate list at the first weight *gap*.

    Shared tail of :func:`adaptive_candidates`: the list is truncated at
    the first position whose weight drops below ``gap_ratio`` of the
    running mean of the weights kept so far, keeping at least
    ``minimum`` candidates.
    """
    if not 0.0 < gap_ratio < 1.0:
        raise ValueError(f"gap_ratio must be in (0, 1), got {gap_ratio}")
    if minimum < 1:
        raise ValueError(f"minimum must be >= 1, got {minimum}")
    if len(ranked) <= minimum:
        return ranked
    kept_weight = 0.0
    for position, (_, weight) in enumerate(ranked):
        if position >= minimum and weight < gap_ratio * (kept_weight / position):
            return ranked[:position]
        kept_weight += weight
    return ranked


def adaptive_candidates(
    scores: Mapping[int, float],
    k: int,
    gap_ratio: float = 0.2,
    minimum: int = 3,
) -> tuple[tuple[int, float], ...]:
    """Dynamic per-node pruning (the paper's stated future work).

    Section 7: "how to set the parameters of pruning candidate pairs
    dynamically, based on the local similarity distributions of each
    node's candidates."  This policy starts from the node's top-``k``
    list and cuts it at the first *gap*: a position where the weight
    drops below ``gap_ratio`` of the running mean of the weights kept
    so far.  Nodes with one dominant candidate keep a short list
    (cheaper, more precise reciprocity); nodes with a flat distribution
    keep the full ``k`` (no evidence to cut on).  At least ``minimum``
    candidates are kept when available, so rank aggregation always has
    ranks to fuse.

    >>> adaptive_candidates({1: 10.0, 2: 9.5, 3: 0.1, 4: 0.05}, 4, minimum=2)
    ((1, 10.0), (2, 9.5))
    """
    return adaptive_cut(top_k_candidates(scores, k), gap_ratio, minimum)
