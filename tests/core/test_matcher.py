"""Unit tests for the non-iterative matcher (Algorithm 2)."""

import pytest

from repro.core.config import MinoanERConfig
from repro.core.matcher import NonIterativeMatcher
from repro.graph.blocking_graph import DisjunctiveBlockingGraph


def graph(**kwargs) -> DisjunctiveBlockingGraph:
    n1 = kwargs.pop("n1", 2)
    n2 = kwargs.pop("n2", 2)
    return DisjunctiveBlockingGraph(
        n1=n1,
        n2=n2,
        name_matches_1=kwargs.pop("names_1", {}),
        name_matches_2=kwargs.pop("names_2", {}),
        value_candidates_1=kwargs.pop("value_1", [()] * n1),
        value_candidates_2=kwargs.pop("value_2", [()] * n2),
        neighbor_candidates_1=kwargs.pop("neighbor_1", [()] * n1),
        neighbor_candidates_2=kwargs.pop("neighbor_2", [()] * n2),
    )


@pytest.fixture
def layered_graph() -> DisjunctiveBlockingGraph:
    """3x3: a0-b0 by name; a1-b1 by strong value; a2-b2 by neighbors."""
    return graph(
        n1=3,
        n2=3,
        names_1={0: 0},
        names_2={0: 0},
        value_1=[((0, 0.2),), ((1, 2.5), (2, 0.5)), ((2, 0.3),)],
        value_2=[((0, 0.2),), ((1, 2.5),), ((2, 0.3), (1, 0.2))],
        neighbor_1=[(), (), ((2, 4.0),)],
        neighbor_2=[(), (), ((2, 4.0),)],
    )


class TestRuleComposition:
    def test_each_rule_contributes(self, layered_graph):
        result = NonIterativeMatcher(MinoanERConfig()).match(layered_graph)
        assert result.matches == {(0, 0), (1, 1), (2, 2)}
        assert result.rule_of[(0, 0)] == "R1"
        assert result.rule_of[(1, 1)] == "R2"
        assert result.rule_of[(2, 2)] == "R3"

    def test_rule_scores_recorded(self, layered_graph):
        result = NonIterativeMatcher(MinoanERConfig()).match(layered_graph)
        assert result.scores[(0, 0)] == float("inf")
        assert result.scores[(1, 1)] == pytest.approx(2.5)
        assert 0 < result.scores[(2, 2)] <= 1.0

    def test_matches_by_rule(self, layered_graph):
        result = NonIterativeMatcher(MinoanERConfig()).match(layered_graph)
        assert result.matches_by_rule("R1") == {(0, 0)}
        assert result.matches_by_rule("R2") == {(1, 1)}


class TestAblationToggles:
    def test_name_rule_disabled(self, layered_graph):
        config = MinoanERConfig(use_name_rule=False)
        result = NonIterativeMatcher(config).match(layered_graph)
        assert not result.matches_by_rule("R1")
        # a0 falls through to R3 via its weak value candidate.
        assert (0, 0) in result.matches

    def test_only_name_rule(self, layered_graph):
        config = MinoanERConfig(use_value_rule=False, use_rank_aggregation=False)
        result = NonIterativeMatcher(config).match(layered_graph)
        assert result.matches == {(0, 0)}

    def test_reciprocity_filters(self):
        # a0 keeps b0, but b0 kept nothing: non-reciprocal R2 match.
        g = graph(value_1=[((0, 1.5),), ()], value_2=[(), ()])
        with_r4 = NonIterativeMatcher(MinoanERConfig()).match(g)
        without_r4 = NonIterativeMatcher(MinoanERConfig(use_reciprocity=False)).match(g)
        assert with_r4.matches == set()
        assert with_r4.removed_by_reciprocity == {(0, 0)}
        assert without_r4.matches == {(0, 0)}

    def test_neighbor_evidence_toggle(self):
        g = graph(
            value_1=[((0, 0.6), (1, 0.5)), ()],
            value_2=[((0, 0.6),), ((0, 0.5),)],
            neighbor_1=[((1, 9.0),), ()],
            neighbor_2=[(), ((0, 9.0),)],
        )
        with_neighbors = NonIterativeMatcher(MinoanERConfig(theta=0.4)).match(g)
        without = NonIterativeMatcher(
            MinoanERConfig(theta=0.4, use_neighbor_evidence=False)
        ).match(g)
        assert (0, 1) in with_neighbors.matches
        assert (0, 0) in without.matches


class TestConflictResolution:
    def test_unique_mapping_keeps_higher_priority_rule(self):
        # R1 matches (a0, b0); a1's best value candidate is also b0.
        g = graph(
            names_1={0: 0},
            names_2={0: 0},
            value_1=[(), ((0, 5.0),)],
            value_2=[((1, 5.0), (0, 1.0)), ()],
        )
        result = NonIterativeMatcher(MinoanERConfig()).match(g)
        assert (0, 0) in result.matches
        assert (1, 0) not in result.matches

    def test_unique_mapping_output_is_one_to_one(self, layered_graph):
        result = NonIterativeMatcher(MinoanERConfig()).match(layered_graph)
        lefts = [a for a, _ in result.matches]
        rights = [b for _, b in result.matches]
        assert len(lefts) == len(set(lefts))
        assert len(rights) == len(set(rights))

    def test_proposed_includes_filtered_pairs(self):
        g = graph(value_1=[((0, 1.5),), ()], value_2=[(), ()])
        result = NonIterativeMatcher(MinoanERConfig()).match(g)
        assert ((0, 0), "R2") in result.proposed
