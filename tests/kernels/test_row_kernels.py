"""Single-row kernel entry points: numpy kernels vs the python oracle.

``accumulate_row``/``select_row`` are the serving hot path (and, for a
batch of one, the fast path inside ``value_topk``/``gamma_topk``).  The
numpy pair must reproduce the python oracle's float sums and ranked
output exactly -- including ties, which rank by ascending candidate id
under the ``(-score, id)`` total order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import numpy_backend
from tests.kernels import python_backend

BACKENDS = {"python": python_backend, "numpy": numpy_backend}

KERNEL_API = (
    "accumulate_beta",
    "accumulate_gamma",
    "accumulate_row",
    "batch_evidence",
    "beta_sparse",
    "gamma_topk",
    "merge_batch_evidence",
    "retained_edges",
    "row_evidence",
    "select_row",
    "value_topk",
)
"""Entry points the kernel module exposes and the oracle mirrors, so
every conformance test can run both under one signature."""


def missing_api(module):
    """:data:`KERNEL_API` names ``module`` lacks (empty = conformant)."""
    return tuple(name for name in KERNEL_API if not callable(getattr(module, name, None)))


@st.composite
def weighted_postings(draw):
    """Random ``(block weight, ascending candidate ids)`` pairs."""
    n2 = draw(st.integers(min_value=1, max_value=24))
    n_blocks = draw(st.integers(min_value=0, max_value=10))
    blocks = []
    for _ in range(n_blocks):
        ids = sorted(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=n2 - 1),
                    min_size=0, max_size=n2, unique=True,
                )
            )
        )
        # Weights drawn from a tiny pool so duplicate sums (ties) are
        # common -- the tie-break is the hard part of selection.
        weight = draw(st.sampled_from([0.25, 0.5, 1.0, 1.5]))
        blocks.append((weight, ids))
    return blocks


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_api_complete(backend):
    module = BACKENDS[backend]
    assert missing_api(module) == ()
    assert set(KERNEL_API) <= set(dir(module))


class TestAccumulateRow:
    @settings(max_examples=150, deadline=None)
    @given(blocks=weighted_postings())
    def test_numpy_matches_python(self, blocks):
        py_ids, py_sums = python_backend.accumulate_row(blocks)
        np_ids, np_sums = numpy_backend.accumulate_row(blocks)
        # python returns first-touch order, numpy ascending-id order;
        # the (candidate -> sum) mapping must agree bit for bit.
        assert dict(zip(np_ids, np_sums)) == dict(zip(py_ids, py_sums))
        assert np_ids == sorted(np_ids)
        assert all(isinstance(c, int) for c in np_ids)

    def test_consumes_array_and_list_postings(self):
        from array import array

        import numpy as np

        blocks = [
            (0.5, array("i", [0, 2, 5])),
            (1.0, np.array([2, 3], dtype="<i4")),
            (0.25, [5]),
            (2.0, array("i")),
        ]
        ids, sums = numpy_backend.accumulate_row(blocks)
        assert dict(zip(ids, sums)) == {0: 0.5, 2: 1.5, 3: 1.0, 5: 0.75}

    def test_empty_input(self):
        assert python_backend.accumulate_row([]) == ([], [])


def unique_form_row(blocks):
    """:func:`numpy_backend.accumulate_row` as it was written before the
    packed sort: ``np.unique(..., return_inverse=True)`` + ``bincount``."""
    import numpy as np

    chunks = [np.asarray(ids) for _, ids in blocks if len(ids)]
    if not chunks:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    counts = [len(chunk) for chunk in chunks]
    weights = [weight for weight, ids in blocks if len(ids)]
    expanded = np.repeat(np.asarray(weights, dtype=np.float64), counts)
    unique_cols, inverse = np.unique(np.concatenate(chunks), return_inverse=True)
    return unique_cols, np.bincount(inverse, weights=expanded)


@st.composite
def mixed_chunks(draw):
    """Weighted postings as a query meets them: int32 slices of one
    mapped buffer, int64 arrays and python lists (live delta slots),
    empty chunks, and the same candidate in many chunks."""
    import numpy as np

    n2 = draw(st.integers(min_value=1, max_value=2**31 - 1))
    pool = draw(st.lists(st.integers(0, n2 - 1), min_size=1, max_size=12, unique=True))
    blocks = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        ids = sorted(draw(st.lists(st.sampled_from(pool), max_size=len(pool), unique=True)))
        weight = draw(st.floats(min_value=0.01, max_value=2.0))
        kind = draw(st.sampled_from(["mapped", "int64", "list"]))
        if kind == "mapped":
            # A slice of an int32 section, like MappedPostings hands out.
            buffer = np.asarray([7, *ids, 7], dtype="<i4").tobytes()
            chunk = np.frombuffer(buffer, dtype="<i4")[1 : 1 + len(ids)]
        elif kind == "int64":
            chunk = np.asarray(ids, dtype=np.int64)
        else:
            chunk = ids
        blocks.append((weight, chunk))
    return blocks


class TestPackedRowCollapse:
    """The packed value sort collapses a row exactly as ``np.unique``."""

    @settings(deadline=None)
    @given(blocks=mixed_chunks())
    def test_packed_equals_unique_form_bit_for_bit(self, blocks):
        import numpy as np

        want_ids, want_sums = unique_form_row(blocks)
        ids, sums = numpy_backend.accumulate_row(blocks, as_arrays=True)
        if not len(want_ids):
            assert (ids, sums) == ([], [])
            return
        assert ids.dtype == want_ids.dtype
        assert np.array_equal(ids, want_ids)
        assert np.array_equal(sums.view(np.int64), want_sums.view(np.int64))
        listed = numpy_backend.accumulate_row(blocks)
        assert listed == (want_ids.tolist(), want_sums.tolist())

    def test_duplicates_across_chunks_and_empty_chunks(self):
        import numpy as np

        section = np.asarray([4, 9, 2, 4], dtype="<i4")
        blocks = [(0.5, section[:2]), (0.25, []), (1.5, section[3:]), (2.0, [2, 9]), (1.0, section[:0])]
        ids, sums = numpy_backend.accumulate_row(blocks, as_arrays=True)
        want_ids, want_sums = unique_form_row(blocks)
        assert ids.tolist() == [2, 4, 9]
        assert np.array_equal(ids, want_ids)
        assert np.array_equal(sums.view(np.int64), want_sums.view(np.int64))


class TestSelectRow:
    @settings(max_examples=200, deadline=None)
    @given(blocks=weighted_postings(), k=st.integers(min_value=1, max_value=8))
    def test_numpy_matches_python(self, blocks, k):
        ids, sums = python_backend.accumulate_row(blocks)
        expected = python_backend.select_row(ids, sums, k)
        assert numpy_backend.select_row(ids, sums, k) == expected
        # Row order must not matter: both rank the numpy-accumulated
        # (ascending) row like the first-touch one.
        np_ids, np_sums = numpy_backend.accumulate_row(blocks)
        assert numpy_backend.select_row(np_ids, np_sums, k) == expected
        assert python_backend.select_row(np_ids, np_sums, k) == expected

    @settings(max_examples=100, deadline=None)
    @given(blocks=weighted_postings(), k=st.integers(min_value=1, max_value=8))
    def test_adaptive_cut_matches_python(self, blocks, k):
        ids, sums = python_backend.accumulate_row(blocks)
        cut = (0.2, 1)
        assert numpy_backend.select_row(ids, sums, k, cut) == (
            python_backend.select_row(ids, sums, k, cut)
        )

    def test_tie_break_prefers_smaller_ids(self):
        ids = [9, 3, 7, 1, 5]
        sums = [1.0, 1.0, 2.0, 1.0, 1.0]
        # k=3: 7 wins outright, then the 1.0 ties rank by ascending id.
        expected = ((7, 2.0), (1, 1.0), (3, 1.0))
        assert numpy_backend.select_row(ids, sums, 3) == expected
        assert python_backend.select_row(ids, sums, 3) == expected

    def test_degenerate_inputs(self):
        assert numpy_backend.select_row([], [], 5) == ()
        assert numpy_backend.select_row([1], [0.5], 0) == ()
        assert numpy_backend.select_row([1], [0.5], 5) == ((1, 0.5),)


class TestTopkGrouped:
    def test_single_group_equals_select_row(self):
        """A batch of one runs the grouped path too; its one list is the
        serving row kernel's selection of the same row."""
        import numpy as np

        # The precondition's layout: ascending candidate within equal scores.
        candidates = np.array([0, 2, 4, 7], dtype=np.int64)
        scores = np.array([2.0, 1.0, 1.0, 0.5], dtype=np.float64)
        groups = np.zeros(4, dtype=np.int64)
        for k, cut in ((2, None), (4, (0.5, 1))):
            (ranked,) = numpy_backend._topk_grouped(groups, candidates, scores, 1, k, cut)
            assert ranked == numpy_backend.select_row(candidates, scores, k, cut)
        assert numpy_backend._topk_grouped(groups, candidates, scores, 1, 2, None)[0] == (
            (0, 2.0),
            (2, 1.0),
        )


class TestRowEvidence:
    """The fused serving op equals its composed parts, in the kernels
    and in the oracle."""

    @settings(max_examples=150, deadline=None)
    @given(
        blocks=weighted_postings(),
        k=st.integers(min_value=1, max_value=8),
        margin=st.integers(min_value=0, max_value=5),
    )
    def test_fused_equals_composed(self, blocks, k, margin):
        from heapq import nsmallest

        ids, sums = python_backend.accumulate_row(blocks)
        probe = min(ids) if ids else 0
        for candidate in (None, probe, -1):
            row, mins, count, touched = python_backend.row_evidence(
                blocks, k, margin, candidate
            )
            assert row == python_backend.select_row(ids, sums, k)
            assert mins == sorted(nsmallest(margin, ids))
            assert count == len(ids)
            assert touched == (candidate is not None and candidate in ids)

    @settings(max_examples=150, deadline=None)
    @given(
        blocks=weighted_postings(),
        k=st.integers(min_value=1, max_value=8),
        margin=st.integers(min_value=0, max_value=5),
    )
    def test_numpy_matches_python(self, blocks, k, margin):
        ids, _ = python_backend.accumulate_row(blocks)
        probe = min(ids) if ids else 0
        for candidate in (None, probe, -1):
            expected = python_backend.row_evidence(blocks, k, margin, candidate)
            actual = numpy_backend.row_evidence(blocks, k, margin, candidate)
            assert tuple(actual[0]) == tuple(expected[0])
            assert list(actual[1]) == list(expected[1])
            assert actual[2:] == expected[2:]
            assert all(isinstance(c, int) for c in actual[1])

    def test_empty_blocks(self):
        for backend in (python_backend, numpy_backend):
            row, mins, count, touched = backend.row_evidence([], 5, 3, 1)
            assert (tuple(row), list(mins), count, touched) == ((), [], 0, False)
