"""The non-iterative matching process (Algorithm 2), as array passes.

Four rules applied in a fixed order -- no data-driven iteration, no
convergence loop.  ``M = (R1 or R2 or R3) and R4`` (Definition 4.1),
followed by Unique Mapping Clustering (section 5) to enforce the
clean-clean 1-1 constraint when several rules proposed conflicting
partners for the same entity.

Each rule is one pass over the graph's candidate lists laid out as CSR
arrays (:class:`GraphArrays`): R2 reads the head of every row, R3 sums
rank terms per ``(node, candidate)`` and takes an arg-max per node, R4
gathers the proposals' own rows, and unique mapping is one ``lexsort``
plus a greedy sweep.  ``DESIGN.md`` ("Algorithm 2 over arrays") argues
why R3 needs no sequential claim walk; the per-node loops these passes
replace are the tests' oracle (``tests/core/matcher_reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.config import MinoanERConfig
from repro.core.rules import RULE_PRIORITY, VALUE_THRESHOLD, Match, name_rule
from repro.graph.blocking_graph import DisjunctiveBlockingGraph
from repro.kernels.numpy_backend import _side_arrays

RULES = tuple(sorted(RULE_PRIORITY, key=RULE_PRIORITY.__getitem__))
"""Rule labels indexed by priority: ``("R1", "R2", "R3")``."""

Proposed = tuple[np.ndarray, np.ndarray, np.ndarray]
"""A rule's proposals on one side: ``(nodes, partners, scores)``."""

RuleStage = Callable[..., Proposed]
"""How a rule's kernel runs over its nodes: ``stage(name, nodes, kernel,
*args)`` returns ``kernel(nodes, *args)``, computed whole or per node
range (:mod:`repro.parallel.pipeline`)."""


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
        side-2 pass skips the nodes no side-1 node points at (see
        :meth:`GraphArrays.rank_aggregation_scope`), so the proposals
        R4 would certainly have removed are never made and are absent
        here.
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


class GraphArrays:
    """A graph's candidate lists as CSR arrays, read once per matcher run.

    ``value[side - 1]`` / ``neighbor[side - 1]`` are ``(offsets, ids,
    scores)`` with ``offsets`` from 0, read through
    :func:`repro.kernels.numpy_backend._side_arrays` -- off a
    :class:`~repro.kernels.RankedLists`' arrays, or gathered from plain
    tuples for a hand-built graph.  ``names[side - 1]`` holds each
    node's exclusive name partner, or -1.
    """

    def __init__(self, graph: DisjunctiveBlockingGraph):
        self.sizes = (graph.n1, graph.n2)
        self.value = tuple(_csr(lists) for lists in graph._value_candidates)
        self.neighbor = tuple(_csr(lists) for lists in graph._neighbor_candidates)
        self.names = tuple(
            _partners(names, size) for names, size in zip(graph._name_matches, self.sizes)
        )

    def rank_aggregation_scope(self, side: int, use_reciprocity: bool) -> np.ndarray | None:
        """Mask of the nodes of ``side`` that R3 visits (None: all).

        Side 2 with reciprocity (R4) on visits only the nodes some
        side-1 node points at (by value, neighbor or name).  A side-2
        proposal ``(partner, eid)`` survives R4 only if the edge
        ``partner -> eid`` exists, so any other side-2 node's proposal
        is one R4 would remove, and skipping it changes no other
        proposal (a side-2 node reads only its own lists and whether its
        side claimed it).  So a batch's R3 costs its candidates, not
        ``n2``.
        """
        if side == 1 or not use_reciprocity:
            return None
        scope = np.zeros(self.sizes[1], dtype=bool)
        scope[self.value[0][1]] = True
        scope[self.neighbor[0][1]] = True
        scope[self.names[0][self.names[0] >= 0]] = True
        return scope

    def points_at(self, side: int, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Per pair ``k``: does ``sources[k]`` of ``side`` point at
        ``targets[k]`` (by name, value or neighbor)?  One gather over
        the sources' own rows per evidence kind."""
        hit = self.names[side - 1][sources] == targets
        for offsets, ids, _ in (self.value[side - 1], self.neighbor[side - 1]):
            row, _, slot = _gather(sources, offsets)
            hit[row[ids[slot] == targets[row]]] = True
        return hit


def _csr(lists) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    lengths, ids, scores = _side_arrays(lists)
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets, ids, scores


def _partners(names: dict[int, int], size: int) -> np.ndarray:
    partners = np.full(size, -1, dtype=np.int64)
    partners[np.fromiter(names, np.int64, len(names))] = np.fromiter(
        names.values(), np.int64, len(names)
    )
    return partners


def _gather(nodes: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, ...]:
    """The entries of ``nodes``' rows, back to back: each entry's index
    into ``nodes``, its position in its row and its slot in the flat
    arrays."""
    starts = offsets[nodes]
    lengths = offsets[nodes + 1] - starts
    row = np.repeat(np.arange(len(nodes)), lengths)
    position = np.arange(len(row)) - (np.cumsum(lengths) - lengths)[row]
    return row, position, starts[row] + position


def value_rule_kernel(nodes, offsets, ids, scores) -> Proposed:
    """R2 over ``nodes`` (ascending, unclaimed): the head of each row --
    the top value candidate -- where its ``beta`` reaches
    :data:`~repro.core.rules.VALUE_THRESHOLD` ("several shared
    infrequent tokens")."""
    nodes = np.asarray(nodes, dtype=np.int64)
    nodes = nodes[offsets[nodes + 1] > offsets[nodes]]
    heads = offsets[nodes]
    keep = scores[heads] >= VALUE_THRESHOLD
    return nodes[keep], ids[heads[keep]], scores[heads[keep]]


def rank_aggregation_kernel(nodes, value, neighbor, theta: float) -> Proposed:
    """R3 over ``nodes`` (ascending, unclaimed): each node's best
    candidate by aggregate rank score, ties to the smaller id.

    ``value`` / ``neighbor`` are ``(offsets, ids)`` of the node's side
    (``neighbor`` is None without neighbor evidence).  Position ``p`` of
    a list of length ``L`` scores ``(L - p) / L``, weighted ``theta``
    in the value list and ``1 - theta`` in the neighbor list
    (:mod:`repro.core.rank_aggregation`).  A candidate in both lists
    sums its value term, then its neighbor term: the dict's own two
    float additions, so the score is bit-identical.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    parts = [(value, theta)] + ([(neighbor, 1.0 - theta)] if neighbor is not None else [])
    rows, candidates, terms = [], [], []
    for (offsets, ids), weight in parts:
        row, position, slot = _gather(nodes, offsets)
        length = (offsets[nodes + 1] - offsets[nodes])[row]
        rows.append(row)
        candidates.append(ids[slot])
        terms.append(weight * ((length - position) / length))
    row = np.concatenate(rows)
    if not len(row):
        return nodes[:0], nodes[:0], np.zeros(0)
    candidate = np.concatenate(candidates)
    # A stable sort keeps each value term ahead of its neighbor term.
    order = np.argsort(row * (int(candidate.max()) + 1) + candidate, kind="stable")
    row, candidate, term = row[order], candidate[order], np.concatenate(terms)[order]
    group = np.flatnonzero(
        np.r_[True, (row[1:] != row[:-1]) | (candidate[1:] != candidate[:-1])]
    )
    score = np.add.reduceat(term, group)
    row, candidate = row[group], candidate[group]
    # Candidates ascend within a row, so the first maximum is the
    # smallest id among the best.
    first = np.flatnonzero(np.r_[True, row[1:] != row[:-1]])
    best = np.repeat(np.maximum.reduceat(score, first), np.diff(np.r_[first, len(row)]))
    top = np.flatnonzero(score == best)
    top = top[np.r_[True, row[top][1:] != row[top][:-1]]]
    return nodes[row[top]], candidate[top], score[top]


def _inline(name: str, nodes: np.ndarray, kernel, *args) -> Proposed:
    return kernel(nodes, *args)


class _Proposals:
    """R1-R3's proposals in rule order, and the nodes they claimed."""

    def __init__(self, sizes: tuple[int, int]):
        self.claimed = (np.zeros(sizes[0], dtype=bool), np.zeros(sizes[1], dtype=bool))
        self.parts: list[tuple[np.ndarray, ...]] = []

    def unclaimed(self, side: int, scope: np.ndarray | None = None) -> np.ndarray:
        """Ascending nodes of ``side`` in ``scope`` that no rule claimed."""
        free = ~self.claimed[side - 1]
        return np.flatnonzero(free if scope is None else free & scope)

    def add(self, side: int, proposed: Proposed, rule: str) -> None:
        nodes, partners, scores = proposed
        eid1, eid2 = (nodes, partners) if side == 1 else (partners, nodes)
        priority = np.full(len(eid1), RULE_PRIORITY[rule], dtype=np.int64)
        self.parts.append((eid1, eid2, scores, priority))
        self.claimed[0][eid1] = True
        self.claimed[1][eid2] = True

    def arrays(self) -> tuple[np.ndarray, ...]:
        """``(eid1, eid2, score, priority)`` of every proposal, in order."""
        if not self.parts:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, np.zeros(0), empty
        return tuple(np.concatenate(column) for column in zip(*self.parts))


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
        return self.apply(graph, _inline)

    def apply(self, graph: DisjunctiveBlockingGraph, stage: RuleStage) -> MatchingResult:
        """Algorithm 2 with R2 and R3's kernels run through ``stage``.

        R3 needs no claim walk: within a side, a node is skipped only if
        its own side was claimed before R3 or by the node itself.  So
        side 1 proposes for every node R1/R2 left unclaimed, and side 2
        for every scope node that R1/R2 and side 1's partners left
        unclaimed.  The stage names are the parallel runner's.
        """
        config = self.config
        arrays = GraphArrays(graph)
        proposals = _Proposals(arrays.sizes)
        if config.use_name_rule:
            pairs = np.array([pair for pair, _ in name_rule(graph)], dtype=np.int64).reshape(-1, 2)
            proposals.add(1, (pairs[:, 0], pairs[:, 1], np.full(len(pairs), np.inf)), "R1")
        if config.use_value_rule:
            # The smaller side: fewer checks (Algorithm 2, line 6).
            side = 1 if graph.n1 <= graph.n2 else 2
            proposed = stage(
                "match:R2", proposals.unclaimed(side), value_rule_kernel, *arrays.value[side - 1]
            )
            proposals.add(side, proposed, "R2")
        if config.use_rank_aggregation:
            for side in (1, 2):
                neighbor = arrays.neighbor[side - 1][:2] if config.use_neighbor_evidence else None
                proposed = stage(
                    f"match:R3_side{side}",
                    proposals.unclaimed(
                        side, arrays.rank_aggregation_scope(side, config.use_reciprocity)
                    ),
                    rank_aggregation_kernel,
                    arrays.value[side - 1][:2],
                    neighbor,
                    config.theta,
                )
                proposals.add(side, proposed, "R3")
        return self._resolve(arrays, *proposals.arrays())

    def _resolve(
        self,
        arrays: GraphArrays,
        eid1: np.ndarray,
        eid2: np.ndarray,
        score: np.ndarray,
        priority: np.ndarray,
    ) -> MatchingResult:
        """R4, then Unique Mapping Clustering: proposals sorted by rule
        priority (R1 > R2 > R3), score descending, then pair id, and
        swept greedily -- each entity keeps its single best match."""
        pairs = list(zip(eid1.tolist(), eid2.tolist()))
        proposed = [(pair, RULES[p]) for pair, p in zip(pairs, priority.tolist())]
        removed: set[Match] = set()
        surviving = np.ones(len(pairs), dtype=bool)
        if self.config.use_reciprocity and len(pairs):
            surviving = arrays.points_at(1, eid1, eid2) & arrays.points_at(2, eid2, eid1)
            removed = {pairs[k] for k in np.flatnonzero(~surviving).tolist()}

        order = np.lexsort((eid2, eid1, -score, priority))
        taken_1 = bytearray(arrays.sizes[0])
        taken_2 = bytearray(arrays.sizes[1])
        scores = score.tolist()
        rule_of: dict[Match, str] = {}
        scored: dict[Match, float] = {}
        for k in order[surviving[order]].tolist():
            pair = pairs[k]
            if taken_1[pair[0]] or taken_2[pair[1]]:
                continue
            taken_1[pair[0]] = taken_2[pair[1]] = 1
            rule_of[pair] = proposed[k][1]
            scored[pair] = scores[k]
        return MatchingResult(
            matches=set(rule_of),
            rule_of=rule_of,
            scores=scored,
            proposed=proposed,
            removed_by_reciprocity=removed,
        )
