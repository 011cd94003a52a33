"""The pruned, directed disjunctive blocking graph (Definition 3.3).

The graph is stored as per-node candidate lists -- precisely the
"partial information ... corresponding lists of candidates based on
names, values, or neighbors" that each Spark worker holds in the paper's
implementation (section 4.1).  For every entity of KB1 (side 1) we keep:

* its exclusive name match (``alpha = 1`` edge), if any,
* its top-K value candidates in KB2 with ``beta`` weights, and
* its top-K neighbor candidates in KB2 with ``gamma`` weights,

and symmetrically for KB2.  A *directed* edge ``v -> w`` exists iff
``w`` appears in any of ``v``'s three candidate sets.
"""

from __future__ import annotations

from typing import Iterator, Sequence

CandidateList = tuple[tuple[int, float], ...]
"""Score-descending ``(candidate id, weight)`` pairs."""


class DisjunctiveBlockingGraph:
    """Pruned blocking graph over a clean-clean KB pair.

    Side 1 nodes are KB1 entity ids ``0..n1-1``; side 2 nodes are KB2
    entity ids ``0..n2-1``.  All candidate ids are from the *other*
    side.  Instances are produced by
    :func:`repro.graph.construction.build_blocking_graph`; constructing
    one by hand is supported for tests.
    """

    def __init__(
        self,
        n1: int,
        n2: int,
        name_matches_1: dict[int, int],
        name_matches_2: dict[int, int],
        value_candidates_1: Sequence[CandidateList],
        value_candidates_2: Sequence[CandidateList],
        neighbor_candidates_1: Sequence[CandidateList],
        neighbor_candidates_2: Sequence[CandidateList],
    ):
        if len(value_candidates_1) != n1 or len(neighbor_candidates_1) != n1:
            raise ValueError("side-1 candidate lists must cover all n1 entities")
        if len(value_candidates_2) != n2 or len(neighbor_candidates_2) != n2:
            raise ValueError("side-2 candidate lists must cover all n2 entities")
        self.n1 = n1
        self.n2 = n2
        self._name_matches = (name_matches_1, name_matches_2)
        # Kept as given, not copied: a kernel's lazy sequence (a
        # ``RankedLists``) builds a node's tuple only when read.
        self._value_candidates = (value_candidates_1, value_candidates_2)
        self._neighbor_candidates = (neighbor_candidates_1, neighbor_candidates_2)
        # Per side, the out-sets built so far (node -> targets).
        self._out_sets: tuple[dict[int, frozenset[int]], dict[int, frozenset[int]]] = ({}, {})

    # ------------------------------------------------------------------
    # Accessors (side is 1 or 2; eid is an id on that side)
    # ------------------------------------------------------------------
    def _check_side(self, side: int) -> int:
        if side not in (1, 2):
            raise ValueError(f"side must be 1 or 2, got {side}")
        return side - 1

    def name_match(self, side: int, eid: int) -> int | None:
        """Exclusive name partner of ``eid`` (``alpha=1`` edge), or None."""
        return self._name_matches[self._check_side(side)].get(eid)

    def value_candidates(self, side: int, eid: int) -> CandidateList:
        """Top-K value candidates of ``eid``, beta-descending."""
        return self._value_candidates[self._check_side(side)][eid]

    def neighbor_candidates(self, side: int, eid: int) -> CandidateList:
        """Top-K neighbor candidates of ``eid``, gamma-descending."""
        return self._neighbor_candidates[self._check_side(side)][eid]

    def beta(self, side: int, eid: int, other: int) -> float:
        """``beta`` weight of the directed edge ``eid -> other`` (0 if absent)."""
        for candidate, score in self.value_candidates(side, eid):
            if candidate == other:
                return score
        return 0.0

    def gamma(self, side: int, eid: int, other: int) -> float:
        """``gamma`` weight of the directed edge ``eid -> other`` (0 if absent)."""
        for candidate, score in self.neighbor_candidates(side, eid):
            if candidate == other:
                return score
        return 0.0

    # ------------------------------------------------------------------
    # Directed-edge existence (rule R4, one pair at a time)
    # ------------------------------------------------------------------
    def _out_set(self, side: int, eid: int) -> frozenset[int]:
        """``eid``'s targets, built on first use: a caller that checks a
        few pairs (``explain``, the ensemble) builds those nodes' sets
        only.  The matcher's R4 gathers the same targets as arrays."""
        index = self._check_side(side)
        cache = self._out_sets[index]
        targets = cache.get(eid)
        if targets is None:
            found = {c for c, _ in self._value_candidates[index][eid]}
            found.update(c for c, _ in self._neighbor_candidates[index][eid])
            name_partner = self._name_matches[index].get(eid)
            if name_partner is not None:
                found.add(name_partner)
            targets = cache[eid] = frozenset(found)
        return targets

    def has_directed_edge(self, side: int, eid: int, other: int) -> bool:
        """True iff ``other`` is in any candidate set of ``eid``."""
        return other in self._out_set(side, eid)

    def is_reciprocal(self, eid1: int, eid2: int) -> bool:
        """True iff both directed edges between the pair exist (rule R4)."""
        return self.has_directed_edge(1, eid1, eid2) and self.has_directed_edge(2, eid2, eid1)

    # ------------------------------------------------------------------
    # Aggregate views
    # ------------------------------------------------------------------
    def directed_edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield every directed edge as ``(side, source, target)``."""
        for side, n in ((1, self.n1), (2, self.n2)):
            for eid in range(n):
                for target in sorted(self._out_set(side, eid)):
                    yield side, eid, target

    def edge_count(self) -> int:
        """Number of directed edges after pruning."""
        total = 0
        for side, n in ((1, self.n1), (2, self.n2)):
            for eid in range(n):
                total += len(self._out_set(side, eid))
        return total

    def undirected_pairs(self) -> set[tuple[int, int]]:
        """All ``(eid1, eid2)`` pairs connected in either direction."""
        pairs: set[tuple[int, int]] = set()
        for eid in range(self.n1):
            pairs.update((eid, target) for target in self._out_set(1, eid))
        for eid in range(self.n2):
            pairs.update((source, eid) for source in self._out_set(2, eid))
        return pairs

    def identical(self, other: "DisjunctiveBlockingGraph") -> bool:
        """True iff both graphs hold exactly the same candidate data.

        Stronger than semantic graph equality: candidate *order* and
        bit-level float weights must agree.  This is the check used to
        assert kernel backends reproduce the dict reference exactly.
        """
        return (
            self.n1 == other.n1
            and self.n2 == other.n2
            and self._name_matches == other._name_matches
            and all(
                tuple(mine) == tuple(theirs)
                for side in (0, 1)
                for mine, theirs in zip(
                    self._value_candidates[side], other._value_candidates[side]
                )
            )
            and all(
                tuple(mine) == tuple(theirs)
                for side in (0, 1)
                for mine, theirs in zip(
                    self._neighbor_candidates[side], other._neighbor_candidates[side]
                )
            )
        )

    def to_networkx(self):
        """Export as a ``networkx.DiGraph`` for analysis/visualisation.

        Nodes are ``("E1", eid)`` / ``("E2", eid)``; each directed edge
        carries ``alpha``, ``beta`` and ``gamma`` attributes (zero when
        that evidence type did not retain the edge).  Requires networkx
        (an optional dependency); raises ImportError otherwise.
        """
        import networkx

        graph = networkx.DiGraph()
        graph.add_nodes_from(("E1", eid) for eid in range(self.n1))
        graph.add_nodes_from(("E2", eid) for eid in range(self.n2))
        for side, n in ((1, self.n1), (2, self.n2)):
            source_label, target_label = ("E1", "E2") if side == 1 else ("E2", "E1")
            for eid in range(n):
                for target in self._out_set(side, eid):
                    pair = (eid, target) if side == 1 else (target, eid)
                    graph.add_edge(
                        (source_label, eid),
                        (target_label, target),
                        alpha=1.0 if self._name_matches[side - 1].get(eid) == target else 0.0,
                        beta=self.beta(side, eid, target),
                        gamma=self.gamma(side, eid, target),
                    )
        return graph

    def __repr__(self) -> str:
        # Sizes only: counting edges would build every out-set.
        return f"DisjunctiveBlockingGraph(n1={self.n1}, n2={self.n2})"
