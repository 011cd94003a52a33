"""Integer-interned, array-backed views of the blocking inputs.

The dict-of-dicts hot path of Algorithm 1 spends most of its time
hashing ``(entity, entity)`` pairs.  The kernel layer removes that cost
by interning the inputs once into flat, contiguous integer arrays:

* :class:`InternedBlocks` -- a CSR-style view of a
  :class:`~repro.blocking.base.BlockCollection`: one flat ``array('i')``
  of entity ids per side with per-block offsets, the per-block
  ``1 / log2(|b1|*|b2| + 1)`` weight hoisted into an ``array('d')``
  (computed once, with :func:`math.log2`, so the kernels see weights
  bit-identical to the dict reference's), and a per-KB1-entity CSR index of the blocks that contain
  the entity (in ascending block order, which preserves the reference
  implementation's floating-point accumulation order per pair).
* :class:`CSRAdjacency` -- a flat-array adjacency (offsets + ids), used
  for the top in-neighbor maps that drive ``gamma`` propagation.
* :class:`RankedLists` -- per-node ranked candidate lists in the same
  CSR layout (offsets + ids + scores): what the top-K kernels return,
  so a side nobody reads is never turned into tuples.
* :class:`BatchEvidence` -- one source's batch value evidence as flat
  arrays: what a shard worker ships and the batch merge consumes.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

from repro.graph.blocking_graph import CandidateList

EdgeArrays = tuple[Any, Any, Any]
"""Retained beta edges as parallel ``(sources, targets, weights)``
ndarrays (the output of the ``retained_edges`` kernel)."""


class CSRAdjacency:
    """A compressed sparse adjacency: ``ids[offsets[i]:offsets[i+1]]``
    are the neighbors of node ``i``.

    Built once from per-node neighbor tuples; :meth:`to_lists` returns a
    cached list-of-lists view for pure-Python inner loops.

    ``offsets``/``ids`` are any sliceable int sequences with
    ``.tolist()`` -- ``array('i')`` when built in-process, zero-copy
    int32 views over the mapped index file when the adjacency comes
    from ``ResolutionIndex.load``.  The kernels consume either
    representation unchanged.

    >>> adj = CSRAdjacency.from_lists([(1, 2), (), (0,)])
    >>> adj.neighbors(0)
    array('i', [1, 2])
    >>> len(adj)
    3
    """

    def __init__(self, offsets, ids):
        self.offsets = offsets
        self.ids = ids
        self._lists: list[list[int]] | None = None

    @classmethod
    def from_lists(cls, lists: Sequence[Sequence[int]]) -> "CSRAdjacency":
        offsets = array("i", [0])
        ids = array("i")
        for neighbors in lists:
            ids.extend(neighbors)
            offsets.append(len(ids))
        return cls(offsets, ids)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def neighbors(self, node: int) -> array:
        """Neighbor ids of ``node`` (a flat array slice)."""
        return self.ids[self.offsets[node] : self.offsets[node + 1]]

    def to_lists(self) -> list[list[int]]:
        """Cached list-of-lists view (fast to iterate from Python)."""
        if self._lists is None:
            ids = self.ids.tolist()
            offsets = self.offsets.tolist()
            self._lists = [
                ids[offsets[node] : offsets[node + 1]] for node in range(len(self))
            ]
        return self._lists

    def __getstate__(self):
        return (self.offsets, self.ids)

    def __setstate__(self, state):
        self.offsets, self.ids = state
        self._lists = None

    def __repr__(self) -> str:
        return f"CSRAdjacency({len(self)} nodes, {len(self.ids)} edges)"


class RankedLists(Sequence[CandidateList]):
    """Per-node ranked candidate lists in one CSR layout.

    Node ``i``'s :data:`~repro.graph.blocking_graph.CandidateList` is
    ``zip(ids[offsets[i]:offsets[i+1]], scores[offsets[i]:offsets[i+1]])``.
    A read-only sequence that builds a node's tuple the first time that
    node is read (and keeps it), so a side of 100k mostly-empty lists
    costs three flat arrays, not 100k tuples, when a batch reads a few
    thousand of them.

    ``offsets``/``ids``/``scores`` are the kernels' ndarrays.  Slicing
    ``lists[lo:hi]`` shares ``ids``/``scores``; pickling ships the three
    arrays.

    >>> import numpy as np
    >>> lists = RankedLists(np.array([0, 0, 2, 2]), np.array([4, 0]), np.array([2.0, 1.5]))
    >>> lists[0], lists[1]
    ((), ((4, 2.0), (0, 1.5)))
    >>> [node for node, _ in lists.items()], len(lists[1:])
    ([1], 2)
    """

    def __init__(self, offsets, ids, scores):
        self.offsets = offsets
        self.ids = ids
        self.scores = scores
        # On first read: offsets as a python list, and per node the
        # tuple once built (None until then).
        self._starts: list[int] | None = None
        self._built: list[CandidateList | None] | None = None

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, node):
        if isinstance(node, slice):
            lo, hi, step = node.indices(len(self))
            if step != 1:
                return [self[i] for i in range(lo, hi, step)]
            return RankedLists(self.offsets[lo : max(lo, hi) + 1], self.ids, self.scores)
        built = self._built
        if built is None:
            self._starts = self.offsets.tolist()
            built = self._built = [None] * len(self)
        ranked = built[node]
        if ranked is None:
            if node < 0:
                node += len(built)
            start, end = self._starts[node], self._starts[node + 1]
            ranked = built[node] = tuple(
                zip(self.ids[start:end].tolist(), self.scores[start:end].tolist())
            )
        return ranked

    def _flat(self) -> tuple[list[int], list[int], list[float]]:
        """Offsets rebased to 0 and the covered ids / scores, as lists."""
        offsets = self.offsets.tolist()
        lo, hi = offsets[0], offsets[-1]
        if lo:
            offsets = [offset - lo for offset in offsets]
        return offsets, self.ids[lo:hi].tolist(), self.scores[lo:hi].tolist()

    def __iter__(self) -> Iterator[CandidateList]:
        offsets, ids, scores = self._flat()
        for start, end in zip(offsets, offsets[1:]):
            yield tuple(zip(ids[start:end], scores[start:end]))

    def items(self) -> Iterator[tuple[int, CandidateList]]:
        """``(node, candidate list)`` of every non-empty node, ascending.

        Jumps from one non-empty node to the next by bisecting the
        offsets, so the python work is per non-empty node, not per node.
        """
        offsets, ids, scores = self._flat()
        position = 0
        while position < len(ids):
            node = bisect_right(offsets, position) - 1
            stop = offsets[node + 1]
            yield node, tuple(zip(ids[position:stop], scores[position:stop]))
            position = stop

    def __reduce__(self):
        return (RankedLists, (self.offsets, self.ids, self.scores))

    def __repr__(self) -> str:
        return f"RankedLists({len(self)} nodes, {self.offsets[-1] - self.offsets[0]} candidates)"


class BatchEvidence(NamedTuple):
    """One source's value evidence for a batch, as seven flat arrays.

    *Rows*, one per batch entity in batch order: entity ``i`` holds the
    next ``row_lengths[i]`` pairs of ``row_ids`` (KB2 ids) and
    ``row_scores``, ranked ``(-score, id)``.  *Columns*, one per
    non-empty KB2 column: column ``col_nodes[j]`` (strictly ascending)
    holds the next ``col_lengths[j]`` pairs of ``col_ids`` (batch
    positions) and ``col_scores``, ranked the same way.

    Every field is an ndarray, as the ``batch_evidence`` kernel builds
    it and :mod:`repro.sharding.protocol` decodes it.
    """

    row_lengths: Any
    row_ids: Any
    row_scores: Any
    col_nodes: Any
    col_lengths: Any
    col_ids: Any
    col_scores: Any


def block_weight(comparisons: int) -> float:
    """The block's edge-weight contribution ``1 / log2(|b1|*|b2| + 1)``.

    Computed with :func:`math.log2`, as the dict reference does, so the
    interned weights are bit-identical to its.
    """
    return 1.0 / math.log2(comparisons + 1.0)


class InternedBlocks:
    """A :class:`~repro.blocking.base.BlockCollection` as flat arrays.

    Attributes
    ----------
    n1, n2:
        Entity counts of the two KBs (array extents).
    side1_offsets / side1_ids, side2_offsets / side2_ids:
        CSR layout of the per-block entity id lists.
    weights:
        Per-block ``1 / log2(|b1|*|b2| + 1)``, hoisted out of the
        accumulation loops.
    entity_block_offsets / entity_block_ids:
        Per-KB1-entity CSR index of the blocks containing the entity,
        in ascending block order.
    """

    def __init__(
        self,
        n1: int,
        n2: int,
        side1_offsets: array,
        side1_ids: array,
        side2_offsets: array,
        side2_ids: array,
        weights: array,
    ):
        self.n1 = n1
        self.n2 = n2
        self.side1_offsets = side1_offsets
        self.side1_ids = side1_ids
        self.side2_offsets = side2_offsets
        self.side2_ids = side2_ids
        self.weights = weights
        self.entity_block_offsets, self.entity_block_ids = self._index_entities()

    @classmethod
    def from_blocks(
        cls,
        blocks: Iterable,
        n1: int,
        n2: int,
    ) -> "InternedBlocks":
        """Intern a block collection (or any iterable of objects with
        ``side1`` / ``side2`` id sequences)."""
        return cls.from_block_items(
            ((block.side1, block.side2) for block in blocks), n1, n2
        )

    @classmethod
    def from_block_items(
        cls,
        items: Iterable[tuple[Sequence[int], Sequence[int]]],
        n1: int,
        n2: int,
        weights: Iterable[float] | None = None,
    ) -> "InternedBlocks":
        """Intern plain ``(side1, side2)`` tuples (picklable stage input).

        ``weights`` replaces the per-block weights derived from the
        block sizes: a shard's ``side2`` holds only its own entities,
        but its block weights must see the whole KB.
        """
        side1_offsets = array("i", [0])
        side2_offsets = array("i", [0])
        side1_ids = array("i")
        side2_ids = array("i")
        hoisted = array("d", () if weights is None else weights)
        for side1, side2 in items:
            side1_ids.extend(side1)
            side2_ids.extend(side2)
            side1_offsets.append(len(side1_ids))
            side2_offsets.append(len(side2_ids))
            if weights is None:
                hoisted.append(block_weight(len(side1) * len(side2)))
        return cls(n1, n2, side1_offsets, side1_ids, side2_offsets, side2_ids, hoisted)

    @property
    def n_blocks(self) -> int:
        return len(self.weights)

    def total_comparisons(self) -> int:
        """``||B||`` of the interned collection."""
        off1, off2 = self.side1_offsets, self.side2_offsets
        return sum(
            (off1[b + 1] - off1[b]) * (off2[b + 1] - off2[b])
            for b in range(self.n_blocks)
        )

    def _index_entities(self) -> tuple[array, array]:
        """CSR index KB1 entity -> ids of blocks containing it.

        Two counting passes; block ids per entity come out ascending,
        which keeps each pair's weight-accumulation order equal to the
        reference implementation's block iteration order.
        """
        counts = [0] * (self.n1 + 1)
        ids = self.side1_ids
        for eid in ids:
            counts[eid + 1] += 1
        for eid in range(self.n1):
            counts[eid + 1] += counts[eid]
        offsets = array("i", counts)
        cursor = counts[:]  # next write position per entity
        block_ids = array("i", bytes(4 * len(ids)))
        off1 = self.side1_offsets
        for block in range(self.n_blocks):
            for position in range(off1[block], off1[block + 1]):
                eid = ids[position]
                block_ids[cursor[eid]] = block
                cursor[eid] += 1
        return offsets, block_ids

    def __repr__(self) -> str:
        return (
            f"InternedBlocks({self.n_blocks} blocks, "
            f"{len(self.side1_ids)}+{len(self.side2_ids)} assignments)"
        )

