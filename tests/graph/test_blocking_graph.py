"""Unit tests for the pruned disjunctive blocking graph structure."""

import pytest

from repro.graph.blocking_graph import DisjunctiveBlockingGraph
from tests.core.matcher_reference import targets_of


@pytest.fixture
def small_graph() -> DisjunctiveBlockingGraph:
    """2 x 3 graph: node a0 has a name match with b0; value and neighbor
    candidates are asymmetric to exercise directionality."""
    return DisjunctiveBlockingGraph(
        n1=2,
        n2=3,
        name_matches_1={0: 0},
        name_matches_2={0: 0},
        value_candidates_1=[((0, 2.0), (1, 1.0)), ((2, 0.5),)],
        value_candidates_2=[((0, 2.0),), ((0, 1.0),), ()],
        neighbor_candidates_1=[((1, 3.0),), ()],
        neighbor_candidates_2=[(), ((0, 3.0),), ((1, 0.7),)],
    )


class TestAccessors:
    def test_name_match(self, small_graph):
        assert small_graph.name_match(1, 0) == 0
        assert small_graph.name_match(1, 1) is None
        assert small_graph.name_match(2, 0) == 0

    def test_value_candidates_sorted(self, small_graph):
        assert small_graph.value_candidates(1, 0) == ((0, 2.0), (1, 1.0))

    def test_beta_lookup(self, small_graph):
        assert small_graph.beta(1, 0, 1) == 1.0
        assert small_graph.beta(1, 0, 2) == 0.0
        assert small_graph.beta(2, 1, 0) == 1.0

    def test_gamma_lookup(self, small_graph):
        assert small_graph.gamma(1, 0, 1) == 3.0
        assert small_graph.gamma(2, 2, 1) == 0.7

    def test_invalid_side_rejected(self, small_graph):
        with pytest.raises(ValueError):
            small_graph.value_candidates(3, 0)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            DisjunctiveBlockingGraph(2, 1, {}, {}, [()], [()], [(), ()], [()])


class TestDirectedEdges:
    def test_edge_union_of_evidence_types(self, small_graph):
        # a0 -> b0 (name + value), a0 -> b1 (value + neighbor)
        assert small_graph.has_directed_edge(1, 0, 0)
        assert small_graph.has_directed_edge(1, 0, 1)
        assert not small_graph.has_directed_edge(1, 0, 2)

    def test_directionality(self, small_graph):
        # a1 -> b2 exists (value), but b2 -> a1 only via neighbor list
        assert small_graph.has_directed_edge(1, 1, 2)
        assert small_graph.has_directed_edge(2, 2, 1)
        # b2's only candidates are (1,); b2 -> a0 absent
        assert not small_graph.has_directed_edge(2, 2, 0)

    def test_reciprocity(self, small_graph):
        assert small_graph.is_reciprocal(0, 0)
        assert small_graph.is_reciprocal(1, 2)
        assert not small_graph.is_reciprocal(0, 2)

    def test_edge_count_matches_enumeration(self, small_graph):
        edges = list(small_graph.directed_edges())
        assert small_graph.edge_count() == len(edges)
        assert (1, 0, 0) in edges

    def test_undirected_pairs(self, small_graph):
        pairs = small_graph.undirected_pairs()
        assert (0, 0) in pairs
        assert (1, 2) in pairs
        assert (0, 2) not in pairs

    def test_repr_shows_sizes_only(self, small_graph):
        """Logging a 100k-node serving graph must not build its out-sets."""
        assert repr(small_graph) == "DisjunctiveBlockingGraph(n1=2, n2=3)"
        assert small_graph._out_sets == ({}, {})

    def test_out_sets_built_per_node(self, small_graph):
        assert small_graph.is_reciprocal(1, 2)
        assert sorted(small_graph._out_sets[0]) == [1]
        assert sorted(small_graph._out_sets[1]) == [2]

    def test_targets_of(self, small_graph):
        assert targets_of(small_graph, 1) == [0, 1, 2]
        assert targets_of(small_graph, 2) == [0, 1]


class TestNetworkxExport:
    def test_exports_nodes_and_weighted_edges(self, small_graph):
        networkx = pytest.importorskip("networkx")
        exported = small_graph.to_networkx()
        assert exported.number_of_nodes() == small_graph.n1 + small_graph.n2
        assert exported.number_of_edges() == small_graph.edge_count()
        edge = exported.edges[("E1", 0), ("E2", 0)]
        assert edge["alpha"] == 1.0
        assert edge["beta"] == 2.0

    def test_gamma_attribute(self, small_graph):
        pytest.importorskip("networkx")
        exported = small_graph.to_networkx()
        assert exported.edges[("E1", 0), ("E2", 1)]["gamma"] == 3.0

    def test_reciprocity_visible_as_bidirectional_edges(self, small_graph):
        pytest.importorskip("networkx")
        exported = small_graph.to_networkx()
        assert exported.has_edge(("E1", 0), ("E2", 0))
        assert exported.has_edge(("E2", 0), ("E1", 0))
