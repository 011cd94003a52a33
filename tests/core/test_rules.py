"""Unit tests for the matching rules R1-R4 on hand-built graphs: R1 as the
library runs it, R2-R4 in their per-node reference form."""

import pytest

from repro.core.rules import name_rule
from repro.graph.blocking_graph import DisjunctiveBlockingGraph
from tests.core.matcher_reference import (
    rank_aggregation_rule,
    reciprocity_rule,
    value_rule,
)


def graph(
    n1=2,
    n2=2,
    names_1=None,
    names_2=None,
    value_1=None,
    value_2=None,
    neighbor_1=None,
    neighbor_2=None,
) -> DisjunctiveBlockingGraph:
    return DisjunctiveBlockingGraph(
        n1=n1,
        n2=n2,
        name_matches_1=names_1 or {},
        name_matches_2=names_2 or {},
        value_candidates_1=value_1 or [()] * n1,
        value_candidates_2=value_2 or [()] * n2,
        neighbor_candidates_1=neighbor_1 or [()] * n1,
        neighbor_candidates_2=neighbor_2 or [()] * n2,
    )


class TestNameRule:
    def test_matches_alpha_edges(self):
        g = graph(names_1={0: 1}, names_2={1: 0})
        assert [pair for pair, _ in name_rule(g)] == [(0, 1)]

    def test_scores_are_infinite(self):
        g = graph(names_1={0: 1}, names_2={1: 0})
        assert name_rule(g)[0][1] == float("inf")

    def test_no_names_no_matches(self):
        assert name_rule(graph()) == []


class TestValueRule:
    def test_matches_top_candidate_above_threshold(self):
        g = graph(value_1=[((0, 2.0), (1, 1.5)), ()])
        matches = value_rule(g, set(), set())
        assert [(pair, score) for pair, score in matches] == [((0, 0), 2.0)]

    def test_below_threshold_skipped(self):
        g = graph(value_1=[((0, 0.8),), ()])
        assert value_rule(g, set(), set()) == []

    def test_already_matched_skipped(self):
        g = graph(value_1=[((0, 2.0),), ((1, 2.0),)])
        matches = value_rule(g, {0}, set())
        assert [pair for pair, _ in matches] == [(1, 1)]

    def test_iterates_smaller_side(self):
        # n2 < n1: rule scans side 2 and pairs come back as (e1, e2)
        g = graph(
            n1=3,
            n2=1,
            value_2=[((2, 1.7),)],
        )
        matches = value_rule(g, set(), set())
        assert [pair for pair, _ in matches] == [(2, 0)]


class TestRankAggregationRule:
    def test_matches_best_aggregate(self):
        g = graph(
            value_1=[((0, 0.5), (1, 0.4)), ()],
            neighbor_1=[((1, 3.0),), ()],
        )
        matches = rank_aggregation_rule(g, set(), set(), theta=0.4)
        assert matches[0][0] == (0, 1)  # neighbor evidence outvotes value

    def test_without_neighbor_evidence(self):
        g = graph(
            value_1=[((0, 0.5), (1, 0.4)), ()],
            neighbor_1=[((1, 3.0),), ()],
        )
        matches = rank_aggregation_rule(
            g, set(), set(), theta=0.4, use_neighbor_evidence=False
        )
        assert matches[0][0] == (0, 0)

    def test_claimed_candidates_may_still_be_proposed(self):
        """Algorithm 2 line 11 skips matched *sources* only: a source may
        still propose an already-claimed candidate; the final unique
        mapping resolves such conflicts (see the matcher tests)."""
        g = graph(
            value_1=[((0, 1.0),), ((0, 0.9),)],
        )
        matches = rank_aggregation_rule(g, set(), set(), theta=0.6)
        assert [pair for pair, _ in matches] == [(0, 0), (1, 0)]

    def test_claimed_sources_are_skipped_across_sides(self):
        """Once side 1 matches (a0, b0), b0 is in M and the side-2 loop
        must not use it as a source."""
        g = graph(
            value_1=[((0, 1.0),), ()],
            value_2=[((1, 0.9),), ()],  # b0 would propose a1
        )
        matches = rank_aggregation_rule(g, set(), set(), theta=0.6)
        assert [pair for pair, _ in matches] == [(0, 0)]

    def test_matched_nodes_skipped(self):
        g = graph(value_1=[((0, 1.0),), ((1, 1.0),)])
        matches = rank_aggregation_rule(g, {0}, {0}, theta=0.6)
        assert [pair for pair, _ in matches] == [(1, 1)]

    def test_both_sides_processed(self):
        g = graph(
            value_1=[(), ()],
            value_2=[((1, 0.9),), ()],
        )
        matches = rank_aggregation_rule(g, set(), set(), theta=0.6)
        assert [pair for pair, _ in matches] == [(1, 0)]


class TestReciprocityRule:
    def test_keeps_reciprocal_pairs(self):
        g = graph(
            value_1=[((0, 1.0),), ()],
            value_2=[((0, 1.0),), ()],
        )
        kept = reciprocity_rule(g, [((0, 0), 1.0)])
        assert [pair for pair, _ in kept] == [(0, 0)]

    def test_drops_one_way_pairs(self):
        g = graph(
            value_1=[((0, 1.0),), ()],
            value_2=[(), ()],  # side 2 kept nothing back
        )
        assert reciprocity_rule(g, [((0, 0), 1.0)]) == []

    def test_never_adds(self):
        g = graph(
            value_1=[((0, 1.0),), ()],
            value_2=[((0, 1.0),), ()],
        )
        assert reciprocity_rule(g, []) == []
