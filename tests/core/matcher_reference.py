"""The per-node reference of Algorithm 2: rules R2-R4 and unique mapping
as loops, one node and one dict at a time.

The oracle the array matcher (:mod:`repro.core.matcher`) is compared
against: :func:`reference_match` returns the same
:class:`~repro.core.matcher.MatchingResult`, field for field and float
for float.  It walks the rules in the order the paper's Algorithm 2
states them, claiming nodes in place.  Tests only; the library always
runs the array passes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.clustering.unique_mapping import unique_mapping_clustering
from repro.core.config import MinoanERConfig
from repro.core.matcher import GraphArrays, MatchingResult, NonIterativeMatcher
from repro.core.rank_aggregation import top_aggregate_candidate
from repro.core.rules import RULE_PRIORITY, VALUE_THRESHOLD, Match, name_rule
from repro.graph.blocking_graph import DisjunctiveBlockingGraph


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


def targets_of(graph: DisjunctiveBlockingGraph, side: int) -> list[int]:
    """Ascending ids of the other side's nodes that some node of
    ``side`` points at (the union of that side's out-sets)."""
    n = graph.n1 if side == 1 else graph.n2
    found: set[int] = set()
    for eid in range(n):
        found.update(graph._out_set(side, eid))
    return sorted(found)


def rank_aggregation_scope(
    graph: DisjunctiveBlockingGraph, side: int, use_reciprocity: bool
) -> Sequence[int]:
    """The ascending node ids of ``side`` that R3 visits.

    Side 1: every node.  Side 2 with reciprocity (R4) on: only the nodes
    some side-1 node points at.  A side-2 proposal ``(partner, eid)``
    survives R4 only if the edge ``partner -> eid`` exists, so any other
    side-2 node's proposal is one R4 would remove.
    """
    if side == 1:
        return range(graph.n1)
    return targets_of(graph, 1) if use_reciprocity else range(graph.n2)


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
    Algorithm 2's in-place update of ``M``.  ``use_reciprocity`` says
    R4 will filter the result: side 2 then visits only
    :func:`rank_aggregation_scope`.
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


def resolve_conflicts(
    collected: list[tuple[Match, float, str]],
) -> list[tuple[Match, float, str]]:
    """Unique Mapping Clustering over rule-scored pairs.

    Ordering: rule priority first (R1 > R2 > R3), then score
    descending, then pair id -- each entity keeps its single best
    match.
    """
    ordered = sorted(
        collected,
        key=lambda item: (RULE_PRIORITY[item[2]], -item[1], item[0]),
    )
    # unique_mapping_clustering expects plain scored pairs; feed it a
    # rank-derived score preserving the ordering above.
    total = len(ordered)
    scored = [
        (pair[0], pair[1], float(total - position))
        for position, (pair, _, _) in enumerate(ordered)
    ]
    kept_pairs = unique_mapping_clustering(scored)
    return [item for item in ordered if item[0] in kept_pairs]


def reference_assemble(
    graph: DisjunctiveBlockingGraph,
    config: MinoanERConfig,
    collected: list[tuple[Match, float, str]],
) -> MatchingResult:
    """R4 and conflict resolution over the pairs R1-R3 proposed."""
    proposed = [(pair, rule) for pair, _, rule in collected]
    surviving = collected
    removed: set[Match] = set()
    if config.use_reciprocity:
        kept = reciprocity_rule(graph, [(pair, score) for pair, score, _ in collected])
        kept_pairs = {pair for pair, _ in kept}
        removed = {pair for pair, _, _ in collected if pair not in kept_pairs}
        surviving = [item for item in collected if item[0] in kept_pairs]

    surviving = resolve_conflicts(surviving)
    return MatchingResult(
        matches={pair for pair, _, _ in surviving},
        rule_of={pair: rule for pair, _, rule in surviving},
        scores={pair: score for pair, score, _ in surviving},
        proposed=proposed,
        removed_by_reciprocity=removed,
    )


def assemble(
    graph: DisjunctiveBlockingGraph,
    config: MinoanERConfig,
    collected: list[tuple[Match, float, str]],
) -> MatchingResult:
    """The array matcher's R4 and conflict resolution over ``(pair,
    score, rule)`` proposals collected elsewhere, in their order."""
    return NonIterativeMatcher(config)._resolve(
        GraphArrays(graph),
        np.array([pair[0] for pair, _, _ in collected], dtype=np.int64),
        np.array([pair[1] for pair, _, _ in collected], dtype=np.int64),
        np.array([score for _, score, _ in collected], dtype=np.float64),
        np.array([RULE_PRIORITY[rule] for _, _, rule in collected], dtype=np.int64),
    )


def reference_match(
    graph: DisjunctiveBlockingGraph, config: MinoanERConfig | None = None
) -> MatchingResult:
    """Algorithm 2 one node at a time: the enabled rules in order, then
    the shared tail."""
    config = config or MinoanERConfig()
    collected: list[tuple[Match, float, str]] = []
    matched_1: set[int] = set()
    matched_2: set[int] = set()

    def absorb(pairs: list[tuple[Match, float]], rule: str) -> None:
        for pair, score in pairs:
            collected.append((pair, score, rule))
            matched_1.add(pair[0])
            matched_2.add(pair[1])

    if config.use_name_rule:
        absorb(name_rule(graph), "R1")
    if config.use_value_rule:
        absorb(value_rule(graph, matched_1, matched_2), "R2")
    if config.use_rank_aggregation:
        absorb(
            rank_aggregation_rule(
                graph,
                matched_1,
                matched_2,
                config.theta,
                use_neighbor_evidence=config.use_neighbor_evidence,
                use_reciprocity=config.use_reciprocity,
            ),
            "R3",
        )
    return reference_assemble(graph, config, collected)
