"""The four matching rules of Algorithm 2.

Each rule is a pure function over the pruned disjunctive blocking graph
plus the already-collected matches.  Rules return the pairs they add
(R1-R3) or the pairs they keep (R4); the matcher composes them in the
fixed order R1 -> R2 -> R3 -> R4 (Definition 4.1:
``M = (R1 or R2 or R3) and R4``).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.rank_aggregation import top_aggregate_candidate
from repro.graph.blocking_graph import DisjunctiveBlockingGraph

Match = tuple[int, int]
"""A matched pair ``(KB1 entity id, KB2 entity id)``."""

VALUE_THRESHOLD = 1.0
"""R2 accepts a top value candidate once its ``beta`` reaches this; the
paper fixes it at 1 ("many common and infrequent tokens")."""


def name_rule(graph: DisjunctiveBlockingGraph) -> list[tuple[Match, float]]:
    """R1: match every ``alpha = 1`` edge (exclusive shared name).

    Applied to all descriptions regardless of value or neighbor
    similarity.  Returns ``(pair, score)`` with a constant score of
    infinity -- name evidence outranks everything in later conflict
    resolution.
    """
    matches: list[tuple[Match, float]] = []
    for eid1 in range(graph.n1):
        eid2 = graph.name_match(1, eid1)
        if eid2 is not None:
            matches.append(((eid1, eid2), float("inf")))
    return matches


def value_rule(
    graph: DisjunctiveBlockingGraph,
    matched_1: set[int],
    matched_2: set[int],
) -> list[tuple[Match, float]]:
    """R2: match an entity to its top value candidate when ``beta`` is high.

    Iterates the *smaller* KB side for efficiency (fewer checks, as in
    Algorithm 2 line 6), skipping entities already matched.  The top
    candidate by ``beta`` is accepted iff ``beta >=``
    :data:`VALUE_THRESHOLD` (several shared infrequent tokens).
    """
    matches: list[tuple[Match, float]] = []
    if graph.n1 <= graph.n2:
        side, matched = 1, matched_1
    else:
        side, matched = 2, matched_2
    size = graph.n1 if side == 1 else graph.n2
    for eid in range(size):
        if eid in matched:
            continue
        candidates = graph.value_candidates(side, eid)
        if not candidates:
            continue
        partner, beta = candidates[0]
        if beta >= VALUE_THRESHOLD:
            pair = (eid, partner) if side == 1 else (partner, eid)
            matches.append((pair, beta))
    return matches


def rank_aggregation_scope(
    graph: DisjunctiveBlockingGraph, side: int, use_reciprocity: bool
) -> Sequence[int]:
    """The ascending node ids of ``side`` that R3 visits.

    Side 1: every node.  Side 2 with reciprocity (R4) on: only the nodes
    some side-1 node points at.  A side-2 proposal ``(partner, eid)``
    survives R4 only if the edge ``partner -> eid`` exists, so any other
    side-2 node's proposal is one R4 would remove.  Skipping those nodes
    changes no other proposal: a side-2 node's proposal reads only its
    own candidate lists and whether it is claimed itself, and what it
    claims (itself, and a side-1 partner) no later side-2 node reads.
    The serial rule and the parallel ``match:R3_side2`` stage both
    iterate this, so a batch's R3 costs its candidates, not ``n2``.
    """
    if side == 1:
        return range(graph.n1)
    return graph.targets_of(1) if use_reciprocity else range(graph.n2)


def rank_aggregation_rule(
    graph: DisjunctiveBlockingGraph,
    matched_1: set[int],
    matched_2: set[int],
    theta: float,
    use_neighbor_evidence: bool = True,
    use_reciprocity: bool = False,
) -> list[tuple[Match, float]]:
    """R3: match remaining entities to their best rank-aggregated candidate.

    For every still-unmatched node (both sides, side 1 first, ascending
    ids -- deterministic), the value-candidate and neighbor-candidate
    rankings are fused with weight ``theta`` (see
    :mod:`repro.core.rank_aggregation`) and the top candidate is taken:
    "there is no better candidate for e_i than e_j".

    Matches are applied greedily in iteration order: once a node is
    matched (as source or as chosen candidate) it is skipped, mirroring
    Algorithm 2's in-place update of ``M``.

    ``use_reciprocity`` says R4 will filter the result: side 2 then
    visits only :func:`rank_aggregation_scope`, which drops exactly the
    side-2 proposals R4 would remove and leaves every other one as is.
    """
    matches: list[tuple[Match, float]] = []
    claimed_1 = set(matched_1)
    claimed_2 = set(matched_2)
    for side in (1, 2):
        claimed_own = claimed_1 if side == 1 else claimed_2
        claimed_other = claimed_2 if side == 1 else claimed_1
        for eid in rank_aggregation_scope(graph, side, use_reciprocity):
            if eid in claimed_own:
                continue
            value_candidates = graph.value_candidates(side, eid)
            neighbor_candidates = (
                graph.neighbor_candidates(side, eid) if use_neighbor_evidence else ()
            )
            best = top_aggregate_candidate(value_candidates, neighbor_candidates, theta)
            if best is None:
                continue
            partner, score = best
            pair = (eid, partner) if side == 1 else (partner, eid)
            matches.append((pair, score))
            claimed_own.add(eid)
            claimed_other.add(partner)
    return matches


def reciprocity_rule(
    graph: DisjunctiveBlockingGraph,
    matches: list[tuple[Match, float]],
) -> list[tuple[Match, float]]:
    """R4: keep only matches whose edge survives pruning in *both* directions.

    "Two entities are unlikely to match when one of them does not even
    consider the other to be a candidate."  Purely a filter: it never
    adds matches.
    """
    return [
        (pair, score)
        for pair, score in matches
        if graph.is_reciprocal(pair[0], pair[1])
    ]
