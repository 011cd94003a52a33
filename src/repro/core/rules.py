"""The fixed parts of Algorithm 2's rules: R1, R2's threshold and the
rules' conflict priority.

The matcher (:mod:`repro.core.matcher`) runs R2-R4 and Unique Mapping
Clustering as array passes over the graph's candidate lists, composing
them in the fixed order R1 -> R2 -> R3 -> R4 (Definition 4.1:
``M = (R1 or R2 or R3) and R4``).
"""

from __future__ import annotations

from repro.graph.blocking_graph import DisjunctiveBlockingGraph

Match = tuple[int, int]
"""A matched pair ``(KB1 entity id, KB2 entity id)``."""

VALUE_THRESHOLD = 1.0
"""R2 accepts a top value candidate once its ``beta`` reaches this; the
paper fixes it at 1 ("many common and infrequent tokens")."""

RULE_PRIORITY = {"R1": 0, "R2": 1, "R3": 2}
"""Conflict-resolution priority of the matching rules (R1 strongest):
Unique Mapping Clustering orders proposals by it, then by score."""


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
