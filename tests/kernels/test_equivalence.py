"""Property tests: the array kernels vs the dict reference.

The kernel layer's contract is *bit-identity*, not approximate
equality: identical float sums, identical candidate order, identical
retained-edge order.  Hypothesis drives random KB pairs (as random
block collections and in-neighbor maps) through the numpy kernels, the
python conformance oracle next to this file, and the dict-of-dicts
reference of ``tests/graph/dict_reference.py``.
"""

import pickle
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking.base import Block, BlockCollection
from repro.graph.construction import build_blocking_graph
from repro.kernels import CSRAdjacency, InternedBlocks, RankedLists, block_weight, numpy_backend
from tests.graph import dict_reference as reference
from tests.kernels import python_backend
from tests.kernels.python_backend import retained_edges

BACKENDS = {"python": python_backend, "numpy": numpy_backend}


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
        assert BACKENDS[backend].accumulate_beta(interned) == expected

    @given(data=kb_pair_blocks(), k=st.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_value_topk_bit_identical(self, backend, data, k):
        n1, n2, blocks = data
        expected = reference.value_evidence(blocks, n1, n2, k)
        interned = InternedBlocks.from_blocks(blocks, n1, n2)
        side1, side2 = BACKENDS[backend].value_topk(interned, k)
        assert tuple(side1) == tuple(expected[0])
        assert tuple(side2) == tuple(expected[1])


class TestRetainedEdges:
    @given(data=kb_pair_blocks(), k=st.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_edge_arrays_preserve_insertion_order(self, data, k):
        n1, n2, blocks = data
        value_1, value_2 = reference.value_evidence(blocks, n1, n2, k)
        expected = reference.retained_beta_edges(value_1, value_2)
        sources, targets, weights = retained_edges(value_1, value_2)
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
        edges = retained_edges(value_1, value_2)
        side1, side2 = BACKENDS[backend].gamma_topk(
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
        edges = retained_edges(value_1, value_2)
        adjacency1 = stats1.in_neighbor_csr()
        adjacency2 = stats2.in_neighbor_csr()
        rows = BACKENDS[backend].accumulate_gamma(edges, adjacency1, adjacency2)
        expected = BACKENDS["python"].accumulate_gamma(edges, adjacency1, adjacency2)
        assert rows == expected


class TestFullGraphEquivalence:
    @pytest.mark.parametrize("profile", ["restaurant", "rexa_dblp"])
    def test_scaled_profile_graphs_identical(self, profile):
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
        kernel_graph = build_blocking_graph(stats1, stats2, names, tokens, k=15)
        assert kernel_graph.identical(dict_graph)


CUTS = [None, (0.2, 3), (0.5, 1)]
"""Adaptive cut off, at the config default, and aggressive."""


def _bits(lists):
    """A side's candidate lists with every float as its exact bits."""
    return [tuple((c, s.hex()) for c, s in ranked) for ranked in lists]


def _topk_both(interned, k, cut):
    """``value_topk`` of the python and the numpy backend."""
    return (
        BACKENDS["python"].value_topk(interned, k, cut),
        BACKENDS["numpy"].value_topk(interned, k, cut),
    )


class TestRankedLists:
    """The numpy top-K kernels return :class:`RankedLists`: element for
    element, bit for bit the python backend's tuples."""

    @given(
        data=kb_pair_blocks(),
        k=st.integers(min_value=0, max_value=6),
        cut=st.sampled_from(CUTS),
    )
    @settings(max_examples=80, deadline=None)
    def test_value_topk_equals_python(self, data, k, cut):
        n1, n2, blocks = data
        interned = InternedBlocks.from_blocks(blocks, n1, n2)
        expected, actual = _topk_both(interned, k, cut)
        for mine, theirs in zip(actual, expected):
            assert isinstance(mine, RankedLists) and len(mine) == len(theirs)
            assert _bits(mine) == _bits(theirs)

    @given(data=st.data(), cut=st.sampled_from(CUTS))
    @settings(max_examples=60, deadline=None)
    def test_gamma_topk_equals_python(self, data, cut):
        n1, n2, blocks = data.draw(kb_pair_blocks())
        k = data.draw(st.integers(min_value=0, max_value=6))
        adjacency1 = CSRAdjacency.from_lists(data.draw(in_neighbor_map(size=n1)))
        adjacency2 = CSRAdjacency.from_lists(data.draw(in_neighbor_map(size=n2)))
        value_1, value_2 = reference.value_evidence(blocks, n1, n2, 4)
        edges = retained_edges(value_1, value_2)
        expected = BACKENDS["python"].gamma_topk(edges, adjacency1, adjacency2, k, cut)
        actual = BACKENDS["numpy"].gamma_topk(edges, adjacency1, adjacency2, k, cut)
        for mine, theirs in zip(actual, expected):
            assert isinstance(mine, RankedLists)
            assert _bits(mine) == _bits(theirs)

    @pytest.mark.parametrize("cut", CUTS)
    def test_batch_of_one_and_empty_columns(self, cut):
        # One query touching columns 1 and 4 of six; 0, 2, 3, 5 stay empty.
        blocks = BlockCollection([Block("a", [0], [1, 4]), Block("b", [0], [4])])
        interned = InternedBlocks.from_blocks(blocks, 1, 6)
        (expected_1, expected_2), (side1, side2) = _topk_both(interned, 15, cut)
        assert _bits(side1) == _bits(expected_1) and len(side1) == 1
        assert _bits(side2) == _bits(expected_2)
        assert [node for node, _ in side2.items()] == [1, 4]
        assert side2[0] == side2[-1] == () and side2[4] == expected_2[4]

    @pytest.mark.parametrize("k", [0, 15])
    def test_all_empty_result(self, k):
        interned = InternedBlocks.from_blocks(BlockCollection([]), 3, 5)
        for sides in zip(*_topk_both(interned, k, None)):
            expected, actual = sides
            assert list(actual) == list(expected) == [()] * len(expected)
            assert list(actual.items()) == []

    def test_pickles_and_slices(self):
        """The process backend pickles kernel output and
        ``gamma_range_kernel`` keeps ``rows[lo:hi]``."""
        blocks = BlockCollection(
            [Block("a", [0, 1], [0, 2, 3]), Block("b", [1, 2], [2]), Block("c", [2], [5])]
        )
        interned = InternedBlocks.from_blocks(blocks, 3, 6)
        _, (_, side2) = _topk_both(interned, 2, None)
        as_lists = list(side2)
        for lo, hi in [(0, 6), (1, 4), (2, 3), (4, 4), (5, 6)]:
            window = side2[lo:hi]
            assert isinstance(window, RankedLists)
            assert list(window) == as_lists[lo:hi]
            assert list(pickle.loads(pickle.dumps(window))) == as_lists[lo:hi]
            assert list(window.items()) == [
                (node - lo, ranked) for node, ranked in enumerate(as_lists) if lo <= node < hi and ranked
            ]
        assert list(pickle.loads(pickle.dumps(side2))) == as_lists
        assert side2[::2] == as_lists[::2]
        with pytest.raises(IndexError):
            side2[6]


class TestRetainedEdgeKernels:
    @given(
        data=kb_pair_blocks(),
        k=st.integers(min_value=0, max_value=6),
        ranked=st.sampled_from(["numpy", "python"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_numpy_equals_python_in_order_and_bits(self, data, k, ranked):
        """Same edges, same order, same float bits -- whether the side
        lists arrive as ``RankedLists`` or as plain tuples."""
        n1, n2, blocks = data
        interned = InternedBlocks.from_blocks(blocks, n1, n2)
        value_1, value_2 = BACKENDS[ranked].value_topk(interned, k)
        expected = BACKENDS["python"].retained_edges(value_1, value_2)
        actual = BACKENDS["numpy"].retained_edges(value_1, value_2)
        assert actual[0].tolist() == expected[0].tolist()
        assert actual[1].tolist() == expected[1].tolist()
        assert [w.hex() for w in actual[2].tolist()] == [w.hex() for w in expected[2].tolist()]

    def test_mixed_inputs(self):
        """A merged batch pairs a tuple list (side 1) with ``RankedLists``
        (side 2); the union is the same as from two tuple lists."""
        value_1 = [((1, 2.0), (0, 0.5)), ()]
        value_2 = RankedLists(
            array("i", [0, 2, 2, 3]), array("i", [0, 1, 1]), array("d", [0.5, 0.25, 0.75])
        )
        expected = BACKENDS["python"].retained_edges(value_1, list(value_2))
        actual = BACKENDS["numpy"].retained_edges(value_1, value_2)
        assert [a.tolist() for a in actual] == [e.tolist() for e in expected]
        assert actual[0].tolist() == [0, 0, 1, 1]


def _shard_blocks(blocks, n1, n2, owner, sources):
    """The blocks split over ``sources`` by KB2 owner, each source keeping
    the global block weights (what a shard file carries)."""
    weights = [block_weight(len(block.side1) * len(block.side2)) for block in blocks]
    return [
        InternedBlocks.from_block_items(
            (
                (block.side1, [eid for eid in block.side2 if owner[eid] == source])
                for block in blocks
            ),
            n1,
            n2,
            weights=weights,
        )
        for source in range(sources)
    ]


def _evidence_bits(evidence):
    """A :class:`BatchEvidence`'s fields as lists, floats as exact bits."""
    return [
        [value.hex() if isinstance(value, float) else value for value in field.tolist()]
        for field in evidence
    ]


@st.composite
def sharded_batches(draw):
    """Random blocks split over 1-8 sources, one of them possibly owning
    no KB2 entity at all."""
    n1, n2, blocks = draw(kb_pair_blocks())
    sources = draw(st.integers(min_value=1, max_value=8))
    owners = sources - 1 if sources > 1 and draw(st.booleans()) else sources
    owner = draw(st.lists(st.integers(0, owners - 1), min_size=n2, max_size=n2))
    return n1, n2, blocks, _shard_blocks(blocks, n1, n2, owner, sources)


class TestBatchEvidenceKernels:
    """``batch_evidence`` and ``merge_batch_evidence``: the numpy kernels
    equal the python ones element for element and bit for bit, and the
    merge of every source equals ``value_topk`` over the unsplit blocks."""

    @given(
        data=sharded_batches(),
        k=st.integers(min_value=0, max_value=6),
        cut=st.sampled_from(CUTS),
        absent=st.one_of(st.none(), st.integers(min_value=0, max_value=7)),
    )
    @settings(max_examples=120, deadline=None)
    def test_numpy_equals_python(self, data, k, cut, absent):
        n1, n2, blocks, shards = data
        merged = []
        for backend in ("python", "numpy"):
            kernels = BACKENDS[backend]
            evidences = [kernels.batch_evidence(shard, k, cut) for shard in shards]
            if absent is not None and absent < len(evidences):
                del evidences[absent]  # a degraded shard: the survivors merge
            merged.append((evidences, kernels.merge_batch_evidence(evidences, n1, n2, k, cut)))
        (expected_evidence, expected), (actual_evidence, actual) = merged
        assert [_evidence_bits(e) for e in actual_evidence] == [
            _evidence_bits(e) for e in expected_evidence
        ]
        for mine, theirs in zip(actual, expected):
            assert len(mine) == len(theirs)
            assert _bits(mine) == _bits(theirs)
        if absent is None:
            whole = InternedBlocks.from_blocks(blocks, n1, n2)
            for mine, theirs in zip(actual, BACKENDS["python"].value_topk(whole, k, cut)):
                assert _bits(mine) == _bits(theirs)

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("cut", CUTS)
    def test_no_sources_and_empty_sources(self, backend, cut):
        kernels = BACKENDS[backend]
        empty = kernels.batch_evidence(
            InternedBlocks.from_blocks(BlockCollection([]), 3, 5), 4, cut
        )
        assert [field.tolist() for field in empty] == [[0, 0, 0], [], [], [], [], [], []]
        for sources in ([], [empty], [empty, empty]):
            value_1, value_2 = kernels.merge_batch_evidence(sources, 3, 5, 4, cut)
            assert list(value_1) == [()] * 3 and list(value_2) == [()] * 5


def _lexsort_topk(groups, candidates, scores, n, k, cut, ties_sorted):
    """``_topk_grouped`` as a lexsort over ``(group, -score[, candidate])``:
    the form the packed value sort replaces."""
    if len(groups) == 0 or k <= 0:
        return numpy_backend._empty(n)
    keys = (-scores, groups) if ties_sorted else (candidates, -scores, groups)
    order = np.lexsort(keys)
    counts = np.bincount(groups, minlength=n)
    kept = order[numpy_backend._group_ranks(counts) < k]
    ids, ranked, lengths = numpy_backend._cut_grouped(
        candidates[kept], scores[kept], np.minimum(counts, k), cut
    )
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return RankedLists(offsets, ids, ranked)


@st.composite
def grouped_entries(draw):
    """``(groups, candidates, scores, n, ties_sorted)`` with scores drawn
    from at most three distinct values, so that ties dominate.

    Tie-sorted inputs are distinct ``(row, col)`` pairs in ``(row, col)``
    order, grouped by row or by column (the two ``_accumulate_pairs``
    orientations); the others come in any order, repeats included."""
    n = draw(st.integers(min_value=1, max_value=6))
    width = draw(st.integers(min_value=1, max_value=9))
    values = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=9.0, allow_nan=False),
            min_size=1, max_size=3, unique=True,
        )
    )
    ties_sorted = draw(st.booleans())
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, width - 1)),
            max_size=40, unique=ties_sorted,
        )
    )
    if ties_sorted:
        pairs.sort()
        if draw(st.booleans()):  # grouped by column: n bounds the columns
            pairs = [(col % n, row) for row, col in pairs]
            pairs = sorted(set(pairs), key=lambda pair: (pair[1], pair[0]))
    scores = [draw(st.sampled_from(values)) for _ in pairs]
    groups = np.array([group for group, _ in pairs], dtype=np.int64)
    candidates = np.array([candidate for _, candidate in pairs], dtype=np.int64)
    return groups, candidates, np.array(scores, dtype=np.float64), n, ties_sorted


class TestPackedTopk:
    """``_topk_grouped`` sorts packed ``group | rank | candidate`` keys by
    value; the result is the lexsort form's, float bits included."""

    @given(
        entries=grouped_entries(),
        k=st.integers(min_value=0, max_value=5),
        cut=st.sampled_from(CUTS),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_lexsort_form(self, entries, k, cut):
        groups, candidates, scores, n, ties_sorted = entries
        expected = _lexsort_topk(groups, candidates, scores, n, k, cut, ties_sorted)
        with mock.patch.object(np, "lexsort", side_effect=AssertionError("lexsort ran")):
            actual = numpy_backend._topk_grouped(
                groups, candidates, scores, n, k, cut, ties_sorted=ties_sorted
            )
        assert actual.offsets.tolist() == expected.offsets.tolist()
        assert _bits(actual) == _bits(expected)

    def test_wide_ids_take_the_lexsort_path(self):
        """Candidate ids from 2**45 up to 2**62 need more than 63 key
        bits with any group and rank."""
        groups = np.array([0, 0, 0, 1, 1], dtype=np.int64)
        candidates = np.array([2**62, 2**45 + 1, 2**45, 2**45, 2**50], dtype=np.int64)
        scores = np.array([1.5, 2.5, 2.5, 0.5, 0.5])
        with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
            for ties_sorted in (True, False):
                ranked = numpy_backend._topk_grouped(
                    groups, candidates, scores, 2, 2, None, ties_sorted=ties_sorted
                )
                expected = _lexsort_topk(groups, candidates, scores, 2, 2, None, ties_sorted)
                assert _bits(ranked) == _bits(expected)
        assert lexsort.call_count == 4  # each kernel call, and each oracle call
        assert list(numpy_backend._topk_grouped(groups, candidates, scores, 2, 2, None, False)) == [
            ((2**45, 2.5), (2**45 + 1, 2.5)),
            ((2**45, 0.5), (2**50, 0.5)),
        ]

    def test_signed_zero_scores_keep_their_bits(self):
        """``-0.0 == 0.0`` would share one rank-table entry, so such
        scores are sorted without ranks and come back bit for bit."""
        groups = np.zeros(3, dtype=np.int64)
        candidates = np.array([0, 1, 2], dtype=np.int64)
        scores = np.array([-0.0, 1.0, 0.0])
        (ranked,) = numpy_backend._topk_grouped(groups, candidates, scores, 1, 3, None, False)
        assert [(c, s.hex()) for c, s in ranked] == [
            (1, (1.0).hex()), (0, (-0.0).hex()), (2, (0.0).hex())
        ]


class TestRetainedEdgeCases:
    """Pinned ``retained_edges`` layouts: each equals the python
    oracle's union, in order and in bits."""

    @staticmethod
    def _check(value_1, value_2):
        expected = BACKENDS["python"].retained_edges(list(value_1), list(value_2))
        actual = BACKENDS["numpy"].retained_edges(value_1, value_2)
        assert actual[0].tolist() == list(expected[0])
        assert actual[1].tolist() == list(expected[1])
        assert [w.hex() for w in actual[2].tolist()] == [w.hex() for w in expected[2]]
        return actual

    def test_side1_edge_in_the_last_slot_of_its_column(self):
        value_1 = [((2, 1.0),), ((2, 0.5),)]
        value_2 = [(), (), ((1, 0.5), (3, 0.25), (0, 1.0))]
        sources, targets, _ = self._check(value_1, value_2)
        # (0, 2) and (1, 2) once each; only side 2's (3, 2) is new.
        assert list(zip(sources.tolist(), targets.tolist())) == [(0, 2), (1, 2), (3, 2)]

    def test_empty_columns(self):
        value_1 = [((1, 2.0), (3, 1.0)), (), ((3, 0.5),)]
        value_2 = [(), ((0, 2.0),), (), ((2, 0.5), (1, 0.25)), ()]
        sources, targets, _ = self._check(value_1, value_2)
        assert list(zip(sources.tolist(), targets.tolist())) == [(0, 1), (0, 3), (2, 3), (1, 3)]
        self._check([(), ()], [(), (), ()])
        self._check([((2, 1.0),)], [(), (), ()])

    def test_ranked_lists_slice_not_starting_at_zero(self):
        whole = RankedLists(
            np.array([0, 2, 3, 3, 5], dtype=np.int64),
            np.array([4, 0, 1, 0, 1], dtype=np.int64),
            np.array([0.5, 1.5, 0.75, 1.5, 0.25]),
        )
        value_2 = whole[1:4]  # columns 1..3 of the whole as columns 0..2
        assert int(value_2.offsets[0]) == 2
        value_1 = [((0, 0.75), (2, 1.5)), ((2, 0.25),)]
        sources, targets, _ = self._check(value_1, value_2)
        assert list(zip(sources.tolist(), targets.tolist())) == [(0, 0), (0, 2), (1, 2), (1, 0)]
