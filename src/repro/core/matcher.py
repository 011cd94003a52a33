"""The non-iterative matching process (Algorithm 2).

Four rules applied in a fixed order -- no data-driven iteration, no
convergence loop.  ``M = (R1 or R2 or R3) and R4`` (Definition 4.1),
followed by Unique Mapping Clustering (section 5) to enforce the
clean-clean 1-1 constraint when several rules proposed conflicting
partners for the same entity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.clustering.unique_mapping import unique_mapping_clustering
from repro.core.config import MinoanERConfig
from repro.core.rules import (
    Match,
    name_rule,
    rank_aggregation_rule,
    reciprocity_rule,
    value_rule,
)
from repro.graph.blocking_graph import DisjunctiveBlockingGraph

_RULE_PRIORITY = {"R1": 0, "R2": 1, "R3": 2}


@dataclass
class MatchingResult:
    """Outcome of the matching process.

    Attributes
    ----------
    matches:
        Final ``(eid1, eid2)`` match pairs.
    rule_of:
        Which rule produced each final match ("R1", "R2" or "R3").
    scores:
        The score the producing rule assigned (``inf`` for R1, ``beta``
        for R2, the aggregate rank score for R3).
    proposed:
        All pairs proposed by R1-R3 before reciprocity filtering and
        conflict resolution, with their rule labels.  With R4 on, R3's
        side-2 sweep skips the nodes no side-1 node points at (see
        :func:`repro.core.rules.rank_aggregation_scope`), so the
        proposals R4 would certainly have removed are never made and
        are absent here.
    removed_by_reciprocity:
        Proposed pairs discarded by R4 -- likewise without those never
        made proposals.  ``matches``, ``rule_of`` and ``scores`` are
        exactly what the unrestricted sweep followed by R4 gives.
    """

    matches: set[Match]
    rule_of: dict[Match, str]
    scores: dict[Match, float]
    proposed: list[tuple[Match, str]] = field(default_factory=list)
    removed_by_reciprocity: set[Match] = field(default_factory=set)

    def matches_by_rule(self, rule: str) -> set[Match]:
        """Final matches attributed to one rule."""
        return {pair for pair, r in self.rule_of.items() if r == rule}


class NonIterativeMatcher:
    """Runs rules R1-R4 over a pruned disjunctive blocking graph.

    The rule set is controlled by the config's ``use_*`` toggles, which
    back the Table 4 ablations (each rule alone, no reciprocity, no
    neighbor evidence).

    >>> # matcher = NonIterativeMatcher(MinoanERConfig())
    >>> # result = matcher.match(graph)
    """

    def __init__(self, config: MinoanERConfig | None = None):
        self.config = config or MinoanERConfig()

    def match(self, graph: DisjunctiveBlockingGraph) -> MatchingResult:
        """Apply the enabled rules in order and assemble the match set."""
        config = self.config
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

        return self.assemble(graph, collected)

    def assemble(
        self,
        graph: DisjunctiveBlockingGraph,
        collected: list[tuple[Match, float, str]],
    ) -> MatchingResult:
        """R4 and conflict resolution over the pairs R1-R3 proposed.

        The tail of Algorithm 2 shared with the stage-parallel matcher
        (:mod:`repro.parallel.pipeline`), which collects the same
        ``(pair, score, rule)`` proposals from partitioned stages.
        """
        config = self.config
        proposed = [(pair, rule) for pair, _, rule in collected]
        surviving = collected
        removed: set[Match] = set()
        if config.use_reciprocity:
            kept = reciprocity_rule(graph, [(pair, score) for pair, score, _ in collected])
            kept_pairs = {pair for pair, _ in kept}
            removed = {pair for pair, _, _ in collected if pair not in kept_pairs}
            surviving = [item for item in collected if item[0] in kept_pairs]

        surviving = self._resolve_conflicts(surviving)

        matches = {pair for pair, _, _ in surviving}
        rule_of = {pair: rule for pair, _, rule in surviving}
        scores = {pair: score for pair, score, _ in surviving}
        return MatchingResult(
            matches=matches,
            rule_of=rule_of,
            scores=scores,
            proposed=proposed,
            removed_by_reciprocity=removed,
        )

    @staticmethod
    def _resolve_conflicts(
        collected: list[tuple[Match, float, str]],
    ) -> list[tuple[Match, float, str]]:
        """Unique Mapping Clustering over rule-scored pairs.

        Ordering: rule priority first (R1 > R2 > R3), then score
        descending, then pair id -- each entity keeps its single best
        match.
        """
        ordered = sorted(
            collected,
            key=lambda item: (_RULE_PRIORITY[item[2]], -item[1], item[0]),
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
