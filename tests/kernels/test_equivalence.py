"""Property tests: array kernel backends vs the dict reference.

The kernel layer's contract is *bit-identity*, not approximate
equality: identical float sums, identical candidate order, identical
retained-edge order.  Hypothesis drives random KB pairs (as random
block collections and in-neighbor maps) through every backend and the
reference implementation of :mod:`repro.graph.construction`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking.base import Block, BlockCollection
from repro.graph import construction as reference
from repro.kernels import (
    CSRAdjacency,
    InternedBlocks,
    available_backends,
    get_backend,
    retained_edge_arrays,
)

BACKENDS = [name for name in available_backends() if name != "dict"]


class _FakeStats:
    """The two attributes ``neighbor_evidence`` reads from KBStatistics."""

    def __init__(self, in_neighbors):
        self.kb = range(len(in_neighbors))
        self._in_neighbors = in_neighbors

    def top_in_neighbors(self, eid):
        return self._in_neighbors[eid]

    def in_neighbor_csr(self):
        return CSRAdjacency.from_lists(self._in_neighbors)


@st.composite
def kb_pair_blocks(draw):
    """A random clean-clean blocking input: sizes and a block collection."""
    n1 = draw(st.integers(min_value=1, max_value=8))
    n2 = draw(st.integers(min_value=1, max_value=8))
    n_blocks = draw(st.integers(min_value=0, max_value=12))
    blocks = []
    for index in range(n_blocks):
        side1 = draw(
            st.lists(
                st.integers(min_value=0, max_value=n1 - 1),
                min_size=1, max_size=n1, unique=True,
            )
        )
        side2 = draw(
            st.lists(
                st.integers(min_value=0, max_value=n2 - 1),
                min_size=1, max_size=n2, unique=True,
            )
        )
        blocks.append(Block(f"b{index}", side1, side2))
    return n1, n2, BlockCollection(blocks)


@st.composite
def in_neighbor_map(draw, size):
    return [
        draw(
            st.lists(
                st.integers(min_value=0, max_value=size - 1),
                max_size=size, unique=True,
            )
        )
        for _ in range(size)
    ]


@pytest.mark.parametrize("backend", BACKENDS)
class TestBetaEquivalence:
    @given(data=kb_pair_blocks())
    @settings(max_examples=60, deadline=None)
    def test_beta_rows_bit_identical(self, backend, data):
        n1, n2, blocks = data
        expected = reference.accumulate_beta(blocks, n1)
        interned = InternedBlocks.from_blocks(blocks, n1, n2)
        assert get_backend(backend).accumulate_beta(interned) == expected

    @given(data=kb_pair_blocks(), k=st.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_value_topk_bit_identical(self, backend, data, k):
        n1, n2, blocks = data
        expected = reference.value_evidence(blocks, n1, n2, k)
        interned = InternedBlocks.from_blocks(blocks, n1, n2)
        side1, side2 = get_backend(backend).value_topk(interned, k)
        assert tuple(side1) == tuple(expected[0])
        assert tuple(side2) == tuple(expected[1])


class TestRetainedEdges:
    @given(data=kb_pair_blocks(), k=st.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_edge_arrays_preserve_insertion_order(self, data, k):
        n1, n2, blocks = data
        value_1, value_2 = reference.value_evidence(blocks, n1, n2, k)
        expected = reference.retained_beta_edges(value_1, value_2)
        sources, targets, weights = retained_edge_arrays(value_1, value_2)
        assert list(zip(sources, targets)) == list(expected)
        assert list(weights) == list(expected.values())


@pytest.mark.parametrize("backend", BACKENDS)
class TestGammaEquivalence:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_gamma_topk_bit_identical(self, backend, data):
        n1, n2, blocks = data.draw(kb_pair_blocks())
        k = data.draw(st.integers(min_value=1, max_value=6))
        stats1 = _FakeStats(data.draw(in_neighbor_map(size=n1)))
        stats2 = _FakeStats(data.draw(in_neighbor_map(size=n2)))
        value_1, value_2 = reference.value_evidence(blocks, n1, n2, k)
        beta_edges = reference.retained_beta_edges(value_1, value_2)
        expected = reference.neighbor_evidence(beta_edges, stats1, stats2, k)
        edges = retained_edge_arrays(value_1, value_2)
        side1, side2 = get_backend(backend).gamma_topk(
            edges, stats1.in_neighbor_csr(), stats2.in_neighbor_csr(), k
        )
        assert tuple(side1) == tuple(expected[0])
        assert tuple(side2) == tuple(expected[1])

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_accumulate_gamma_matches_python_reference(self, backend, data):
        n1, n2, blocks = data.draw(kb_pair_blocks())
        stats1 = _FakeStats(data.draw(in_neighbor_map(size=n1)))
        stats2 = _FakeStats(data.draw(in_neighbor_map(size=n2)))
        value_1, value_2 = reference.value_evidence(blocks, n1, n2, 4)
        edges = retained_edge_arrays(value_1, value_2)
        adjacency1 = stats1.in_neighbor_csr()
        adjacency2 = stats2.in_neighbor_csr()
        rows = get_backend(backend).accumulate_gamma(edges, adjacency1, adjacency2)
        expected = get_backend("python").accumulate_gamma(edges, adjacency1, adjacency2)
        assert rows == expected


@pytest.mark.parametrize("backend", BACKENDS)
class TestFullGraphEquivalence:
    @pytest.mark.parametrize("profile", ["restaurant", "rexa_dblp"])
    def test_scaled_profile_graphs_identical(self, backend, profile):
        """End-to-end ``build_blocking_graph`` bit-identity on scaled-down
        dataset profiles (``benchmarks/perf/run.py --workload offline``
        runs the four full profiles and checks their match-set digests)."""
        from repro.blocking.name_blocking import name_blocks
        from repro.blocking.purging import purge_blocks
        from repro.blocking.token_blocking import token_blocks
        from repro.datasets.profiles import scaled_profile
        from repro.kb.statistics import KBStatistics

        pair = scaled_profile(profile, 0.1, seed=3)
        stats1 = KBStatistics(pair.kb1)
        stats2 = KBStatistics(pair.kb2)
        names = name_blocks(stats1, stats2)
        tokens = purge_blocks(
            token_blocks(pair.kb1, pair.kb2),
            cartesian=len(pair.kb1) * len(pair.kb2),
        )
        dict_graph = reference.build_blocking_graph(stats1, stats2, names, tokens, k=15)
        kernel_graph = reference.build_blocking_graph(
            stats1, stats2, names, tokens, k=15, backend=backend
        )
        assert kernel_graph.identical(dict_graph)
