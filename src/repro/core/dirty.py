"""Dirty ER: deduplicating a single KB with MinoanER's machinery.

Section 2 of the paper: "the proposed techniques can be easily
generalized to ... a single dirty KB, i.e., a KB that contains
duplicates", and Definition 3.3 notes the disjunctive blocking graph
"covers dirty ER as well" -- the graph simply stops being bipartite.

This module makes that generalization concrete:

* token and name blocks are built within the one KB; a block of size
  ``n`` suggests ``n * (n - 1) / 2`` intra-KB comparisons;
* ``beta`` accumulates per unordered pair with weight
  ``1 / log2(EF(t)^2 + 1)`` -- the Definition 2.1 weight with both
  Entity Frequencies drawn from the same KB;
* ``gamma`` propagates retained ``beta`` edges through top in-neighbors
  exactly as in the clean-clean case;
* rules R1-R4 run on the symmetric graph (an edge is reciprocal when
  both endpoints retained it), and the accepted pairs are closed
  transitively into duplicate clusters.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

from repro.blocking.name_blocking import normalize_name
from repro.blocking.purging import DEFAULT_BUDGET_RATIO, MIN_BUDGET
from repro.core.config import MinoanERConfig
from repro.core.rank_aggregation import top_aggregate_candidate
from repro.core.rules import VALUE_THRESHOLD
from repro.graph.pruning import top_k_candidates
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.statistics import KBStatistics

Pair = tuple[int, int]


def _ordered(eid1: int, eid2: int) -> Pair:
    return (eid1, eid2) if eid1 < eid2 else (eid2, eid1)


@dataclass
class DirtyResolutionResult:
    """Duplicate pairs and clusters found within one KB."""

    kb: KnowledgeBase
    matches: set[Pair]
    rule_of: dict[Pair, str]
    clusters: list[tuple[int, ...]] = field(default_factory=list)

    def uri_matches(self) -> set[tuple[str, str]]:
        return {
            (self.kb.uri_of(eid1), self.kb.uri_of(eid2))
            for eid1, eid2 in self.matches
        }

    def cluster_uris(self) -> list[tuple[str, ...]]:
        return [tuple(self.kb.uri_of(eid) for eid in cluster) for cluster in self.clusters]


class DirtyMinoanER:
    """Deduplicate one KB: the non-bipartite variant of the pipeline.

    Parameters mirror :class:`repro.core.pipeline.MinoanER`; the same
    configuration object is used (``theta``, ``candidates_k`` etc. keep
    their meaning, and R2 fires at the same ``VALUE_THRESHOLD``).

    Examples
    --------
    >>> from repro.kb.entity import EntityDescription
    >>> from repro.kb.knowledge_base import KnowledgeBase
    >>> kb = KnowledgeBase([
    ...     EntityDescription("a", [("label", "fat duck bray")]),
    ...     EntityDescription("b", [("label", "the fat duck bray")]),
    ...     EntityDescription("c", [("label", "unrelated diner")]),
    ... ])
    >>> result = DirtyMinoanER().resolve(kb)
    >>> result.uri_matches()
    {('a', 'b')}
    """

    def __init__(self, config: MinoanERConfig | None = None):
        self.config = config or MinoanERConfig()

    # ------------------------------------------------------------------
    def resolve(self, kb: KnowledgeBase) -> DirtyResolutionResult:
        """Find duplicate pairs within ``kb`` and cluster them."""
        config = self.config
        stats = KBStatistics(kb, config.name_attributes_k, config.relations_n)

        name_pairs = self._exclusive_name_pairs(stats)
        beta_rows = self._accumulate_beta(kb)
        value_candidates = [
            top_k_candidates(row, config.candidates_k) for row in beta_rows
        ]
        neighbor_candidates = self._neighbor_candidates(stats, value_candidates)

        matches, rule_of = self._match(
            kb, name_pairs, value_candidates, neighbor_candidates
        )
        clusters = _connected_components(matches, len(kb))
        return DirtyResolutionResult(
            kb=kb, matches=matches, rule_of=rule_of, clusters=clusters
        )

    # ------------------------------------------------------------------
    # Evidence
    # ------------------------------------------------------------------
    def _exclusive_name_pairs(self, stats: KBStatistics) -> set[Pair]:
        """Pairs of entities that, and only they, share a name (R1)."""
        by_name: dict[str, list[int]] = defaultdict(list)
        for eid in range(len(stats.kb)):
            seen: set[str] = set()
            for raw in stats.names(eid):
                name = normalize_name(raw)
                if name and name not in seen:
                    seen.add(name)
                    by_name[name].append(eid)
        return {
            _ordered(eids[0], eids[1])
            for eids in by_name.values()
            if len(eids) == 2
        }

    def _accumulate_beta(self, kb: KnowledgeBase) -> list[dict[int, float]]:
        """Intra-KB valueSim from token blocks, with budget purging."""
        config = self.config
        index = kb.token_index
        # Per-token "blocks": comparisons = n * (n - 1) / 2.
        levels: list[tuple[int, list[int]]] = []
        for token, eids in index.items():
            if len(eids) >= 2:
                levels.append((len(eids) * (len(eids) - 1) // 2, eids))
        levels.sort(key=lambda item: item[0])
        cartesian = len(kb) * max(0, len(kb) - 1) // 2
        budget = max(DEFAULT_BUDGET_RATIO * cartesian, float(MIN_BUDGET))
        rows: list[dict[int, float]] = [dict() for _ in range(len(kb))]
        cumulative = 0
        for comparisons, eids in levels:
            cumulative += comparisons
            if config.purge_blocks and cumulative > budget and comparisons > levels[0][0]:
                break
            frequency = len(eids)
            weight = 1.0 / math.log2(frequency * frequency + 1.0)
            for position, eid1 in enumerate(eids):
                for eid2 in eids[position + 1 :]:
                    rows[eid1][eid2] = rows[eid1].get(eid2, 0.0) + weight
                    rows[eid2][eid1] = rows[eid2].get(eid1, 0.0) + weight
        return rows

    def _neighbor_candidates(
        self,
        stats: KBStatistics,
        value_candidates: list[tuple],
    ) -> list[tuple]:
        """gamma propagation through top in-neighbors (symmetric)."""
        retained: dict[Pair, float] = {}
        for eid, candidates in enumerate(value_candidates):
            for other, weight in candidates:
                retained[_ordered(eid, other)] = weight
        gamma_rows: list[dict[int, float]] = [dict() for _ in range(len(stats.kb))]
        for (eid1, eid2), weight in retained.items():
            sources1 = stats.top_in_neighbors(eid1)
            sources2 = stats.top_in_neighbors(eid2)
            for source1 in sources1:
                for source2 in sources2:
                    if source1 == source2:
                        continue
                    gamma_rows[source1][source2] = (
                        gamma_rows[source1].get(source2, 0.0) + weight
                    )
                    gamma_rows[source2][source1] = (
                        gamma_rows[source2].get(source1, 0.0) + weight
                    )
        return [top_k_candidates(row, self.config.candidates_k) for row in gamma_rows]

    # ------------------------------------------------------------------
    # Matching (Algorithm 2 on the symmetric graph)
    # ------------------------------------------------------------------
    def _match(
        self,
        kb: KnowledgeBase,
        name_pairs: set[Pair],
        value_candidates: list[tuple],
        neighbor_candidates: list[tuple],
    ) -> tuple[set[Pair], dict[Pair, str]]:
        config = self.config
        collected: list[tuple[Pair, float, str]] = []
        matched: set[int] = set()

        if config.use_name_rule:
            for pair in sorted(name_pairs):
                collected.append((pair, float("inf"), "R1"))
                matched.update(pair)

        if config.use_value_rule:
            for eid in range(len(kb)):
                if eid in matched or not value_candidates[eid]:
                    continue
                partner, beta = value_candidates[eid][0]
                if beta >= VALUE_THRESHOLD:
                    collected.append((_ordered(eid, partner), beta, "R2"))
                    matched.update((eid, partner))

        if config.use_rank_aggregation:
            # Dirty ER lacks the clean-clean guarantee that every entity
            # has at most one duplicate, so R3 is applied in its strict
            # form: a pair matches only when each endpoint is the
            # *other's* top aggregate candidate (mutual best), not
            # merely reciprocally connected.
            proposals: dict[int, tuple[int, float]] = {}
            for eid in range(len(kb)):
                if eid in matched:
                    continue
                neighbors = (
                    neighbor_candidates[eid] if config.use_neighbor_evidence else ()
                )
                best = top_aggregate_candidate(
                    value_candidates[eid], neighbors, config.theta
                )
                if best is not None:
                    proposals[eid] = best
            for eid, (partner, score) in sorted(proposals.items()):
                if eid in matched or partner in matched:
                    continue
                reverse = proposals.get(partner)
                if reverse is not None and reverse[0] == eid:
                    collected.append((_ordered(eid, partner), score, "R3"))
                    matched.update((eid, partner))

        if config.use_reciprocity:
            out_sets = [
                {c for c, _ in value_candidates[eid]}
                | {c for c, _ in neighbor_candidates[eid]}
                for eid in range(len(kb))
            ]
            for pair in name_pairs:
                out_sets[pair[0]].add(pair[1])
                out_sets[pair[1]].add(pair[0])
            collected = [
                item
                for item in collected
                if item[0][1] in out_sets[item[0][0]]
                and item[0][0] in out_sets[item[0][1]]
            ]

        # Deduplicate (a pair may be proposed from both endpoints).
        best_by_pair: dict[Pair, tuple[float, str]] = {}
        priority = {"R1": 0, "R2": 1, "R3": 2}
        for pair, score, rule in collected:
            current = best_by_pair.get(pair)
            if current is None or (priority[rule], -score) < (
                priority[current[1]],
                -current[0],
            ):
                best_by_pair[pair] = (score, rule)
        matches = set(best_by_pair)
        rule_of = {pair: rule for pair, (_, rule) in best_by_pair.items()}
        return matches, rule_of


def _connected_components(pairs: set[Pair], size: int) -> list[tuple[int, ...]]:
    """Transitive closure of duplicate pairs into clusters (size >= 2)."""
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for eid1, eid2 in pairs:
        root1, root2 = find(eid1), find(eid2)
        if root1 != root2:
            parent[root2] = root1

    clusters: dict[int, list[int]] = defaultdict(list)
    for eid in range(size):
        clusters[find(eid)].append(eid)
    return sorted(
        tuple(members) for members in clusters.values() if len(members) >= 2
    )
