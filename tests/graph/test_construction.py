"""Unit tests for Algorithm 1: graph construction, weighting, pruning."""

import math

import pytest

from repro.blocking.base import Block, BlockCollection
from repro.blocking.name_blocking import name_blocks
from repro.blocking.token_blocking import token_blocks
from repro.graph.construction import build_blocking_graph, name_evidence
from repro.kb.entity import EntityDescription
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.statistics import KBStatistics
from repro.similarity.value import value_similarity
from tests.graph import dict_reference
from tests.graph.dict_reference import (
    accumulate_beta,
    neighbor_evidence,
    retained_beta_edges,
    transpose_beta,
    value_evidence,
)


class TestNameEvidence:
    def test_singleton_blocks_give_alpha_edges(self):
        blocks = BlockCollection([Block("n", [3], [7]), Block("m", [1, 2], [5])])
        forward, reverse = name_evidence(blocks)
        assert forward == {3: 7}
        assert reverse == {7: 3}

    def test_conflicting_singletons_resolved_by_order(self):
        blocks = BlockCollection([Block("n1", [3], [7]), Block("n2", [3], [8])])
        forward, reverse = name_evidence(blocks)
        assert forward == {3: 7}
        assert 8 not in reverse

    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    def test_first_wins_follows_collection_order_under_shuffle(self, seed):
        """Regression: the winning alpha edge is a pure function of the
        block *collection order* -- nothing else.  Shuffling the blocks
        may change which conflicting singleton wins, but the winner must
        always be the first eligible block of the shuffled order, and
        re-running on the same order must reproduce it exactly."""
        import random

        blocks = [Block(f"n{i}", [i % 5], [10 + i]) for i in range(20)]
        blocks += [Block(f"m{i}", [i % 5 + 5], [10 + i]) for i in range(20)]
        shuffled = list(blocks)
        random.Random(seed).shuffle(shuffled)
        collection = BlockCollection(shuffled)

        forward, reverse = name_evidence(collection)
        # Replay the documented rule over the shuffled order.
        expected_forward: dict[int, int] = {}
        expected_reverse: dict[int, int] = {}
        for block in shuffled:
            if block.is_singleton_pair:
                eid1, eid2 = block.side1[0], block.side2[0]
                if eid1 not in expected_forward and eid2 not in expected_reverse:
                    expected_forward[eid1] = eid2
                    expected_reverse[eid2] = eid1
        assert forward == expected_forward
        assert reverse == expected_reverse
        # Same insertion order in again: bitwise repeatable.
        assert name_evidence(collection) == (forward, reverse)


class TestValueEvidence:
    def test_beta_reconstructs_value_similarity(self):
        """beta accumulated from token blocks equals Definition 2.1."""
        kb1 = KnowledgeBase(
            [
                EntityDescription("a0", [("v", "fat duck bray")]),
                EntityDescription("a1", [("v", "bray village")]),
            ],
            name="kb1",
        )
        kb2 = KnowledgeBase(
            [
                EntityDescription("b0", [("v", "the fat duck")]),
                EntityDescription("b1", [("v", "bray berkshire")]),
            ],
            name="kb2",
        )
        blocks = token_blocks(kb1, kb2)  # unpurged: full valueSim
        beta = accumulate_beta(blocks, len(kb1))
        for eid1 in range(len(kb1)):
            for eid2 in range(len(kb2)):
                expected = value_similarity(kb1, kb2, eid1, eid2)
                assert beta[eid1].get(eid2, 0.0) == pytest.approx(expected)

    def test_block_weight_formula(self):
        blocks = BlockCollection([Block("t", [0, 1], [0, 1, 2])])
        beta = accumulate_beta(blocks, 2)
        expected = 1.0 / math.log2(6 + 1)
        assert beta[0][2] == pytest.approx(expected)

    def test_transpose_is_involution(self):
        rows = [{0: 1.0, 1: 2.0}, {1: 0.5}]
        columns = transpose_beta(rows, 2)
        assert transpose_beta(columns, 2) == rows

    def test_top_k_applied_per_side(self):
        blocks = BlockCollection(
            [Block(f"t{i}", [0], [i]) for i in range(5)]
        )
        side1, side2 = value_evidence(blocks, 1, 5, k=2)
        assert len(side1[0]) == 2
        for eid2 in range(5):
            assert len(side2[eid2]) <= 2


class TestRetainedEdges:
    def test_union_of_both_directions(self):
        side1 = [((0, 1.0),)]
        side2 = [((0, 1.0),), ((0, 0.4),)]
        edges = retained_beta_edges(side1, side2)
        assert edges == {(0, 0): 1.0, (0, 1): 0.4}


class TestNeighborEvidence:
    def test_gamma_propagates_beta_to_in_neighbor_pairs(self):
        """Figure 3 example: beta(Bray, Berkshire) + beta(JohnLakeA, JonnyLake)
        flow into gamma(Restaurant1, Restaurant2)."""
        kb1 = KnowledgeBase(
            [
                EntityDescription("R1", [("chef", "JL"), ("place", "Bray")]),
                EntityDescription("JL", [("v", "john lake")]),
                EntityDescription("Bray", [("v", "bray berkshire")]),
            ],
            name="kb1",
        )
        kb2 = KnowledgeBase(
            [
                EntityDescription("R2", [("headchef", "JL2"), ("county", "Berks")]),
                EntityDescription("JL2", [("v", "jonny lake")]),
                EntityDescription("Berks", [("v", "berkshire bray county")]),
            ],
            name="kb2",
        )
        stats1 = KBStatistics(kb1, top_n_relations=2)
        stats2 = KBStatistics(kb2, top_n_relations=2)
        beta_edges = {
            (1, 1): 0.4,  # JL ~ JL2
            (2, 2): 1.2,  # Bray ~ Berks
        }
        side1, side2 = neighbor_evidence(beta_edges, stats1, stats2, k=5)
        gamma = dict(side1[0])
        assert gamma[0] == pytest.approx(1.6)  # R1 -> R2 sums both

    def test_no_in_neighbors_no_gamma(self):
        kb = KnowledgeBase([EntityDescription("x", [("v", "t")])], name="k")
        stats = KBStatistics(kb)
        side1, side2 = neighbor_evidence({(0, 0): 1.0}, stats, stats, k=3)
        assert side1 == [()]
        assert side2 == [()]


class TestBuildBlockingGraph:
    def test_end_to_end_small(self, restaurant_kbs):
        kb1, kb2 = restaurant_kbs
        stats1 = KBStatistics(kb1, top_k_name_attributes=2, top_n_relations=3)
        stats2 = KBStatistics(kb2, top_k_name_attributes=2, top_n_relations=3)
        graph = build_blocking_graph(
            stats1, stats2, name_blocks(stats1, stats2), token_blocks(kb1, kb2), k=5
        )
        chef1, chef2 = kb1.id_of("wd:JohnLakeA"), kb2.id_of("db:JonnyLake")
        r1, r2 = kb1.id_of("wd:Restaurant1"), kb2.id_of("db:Restaurant2")
        # The chefs share the exclusive name "J. Lake": alpha edge.
        assert graph.name_match(1, chef1) == chef2
        # The restaurants share "fat duck" tokens: beta edge.
        assert graph.beta(1, r1, r2) > 0
        # Their neighbors are value-similar: gamma edge.
        assert graph.gamma(1, r1, r2) > 0

    @pytest.mark.parametrize("dynamic", [False, True])
    def test_kernels_bit_identical(self, restaurant_kbs, dynamic):
        kb1, kb2 = restaurant_kbs
        stats1 = KBStatistics(kb1)
        stats2 = KBStatistics(kb2)
        names = name_blocks(stats1, stats2)
        tokens = token_blocks(kb1, kb2)
        reference = dict_reference.build_blocking_graph(
            stats1, stats2, names, tokens, k=5, dynamic_pruning=dynamic
        )
        kernel = build_blocking_graph(
            stats1, stats2, names, tokens, k=5, dynamic_pruning=dynamic
        )
        assert kernel.identical(reference)

    def test_k_bounds_candidate_lists(self, mini_pair):
        pair = mini_pair
        stats1 = KBStatistics(pair.kb1)
        stats2 = KBStatistics(pair.kb2)
        graph = build_blocking_graph(
            stats1,
            stats2,
            name_blocks(stats1, stats2),
            token_blocks(pair.kb1, pair.kb2),
            k=3,
        )
        for eid in range(graph.n1):
            assert len(graph.value_candidates(1, eid)) <= 3
            assert len(graph.neighbor_candidates(1, eid)) <= 3
        for eid in range(graph.n2):
            assert len(graph.value_candidates(2, eid)) <= 3
            assert len(graph.neighbor_candidates(2, eid)) <= 3
