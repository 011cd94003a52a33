"""Node-range kernels: Algorithm 1's per-node pruning, one range at a time.

Algorithm 1 prunes *per node* (lines 10-19 and 28-33), so the unit of
parallel work in :mod:`repro.parallel.pipeline` is a contiguous **node
range** of one KB: a partition computes the complete candidate rows of
its nodes with the same fused kernels the serial path runs
(``value_topk`` / ``gamma_topk``), and the driver only places the
returned slices.  No partial sums ever cross a partition boundary:
every pair's ``beta`` still accumulates over the same blocks in block
order and every ``gamma`` over the same retained edges in edge order,
so each float -- and therefore the graph -- is bit-identical to
:func:`repro.graph.construction.build_blocking_graph` at any partition
count.

A side-2 range is the same computation with the two KBs' roles swapped.
All functions are module-level and operate on picklable inputs, so the
``process`` backend of :class:`~repro.parallel.context.ParallelContext`
can ship them to workers.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, compress
from typing import Sequence

from repro.graph.blocking_graph import CandidateList
from repro.kernels import get_backend
from repro.kernels.interning import CSRAdjacency, EdgeArrays, InternedBlocks, block_weight
from repro.kernels.numpy_backend import AdaptiveCut

NodeRange = tuple[int, int, int]
"""``(side, lo, hi)``: nodes ``lo..hi-1`` of KB ``side`` (1 or 2)."""

BlockItems = list[tuple[Sequence[int], Sequence[int]]]
"""Blocks as ``(own-side ids, other-side ids)`` pairs, in block order."""

RangeRows = tuple[int, int, Sequence[CandidateList]]
"""``(side, lo, rows)``: the candidate lists of nodes ``lo..`` of ``side``."""


def restrict_blocks(
    blocks: BlockItems,
    ranges: Sequence[NodeRange],
) -> list[tuple[NodeRange, BlockItems, array]]:
    """Per node range, the blocks restricted to the range's own nodes.

    ``blocks`` holds ``(side1, side2)`` id tuples.  A range keeps, in
    block order, every block with an own-side member in ``lo..hi-1``
    as ``(own members - lo, all other-side members)`` -- own ids are
    local to the range, so its kernel output *is* the range's rows --
    together with the block's **global** weight: a restricted block is
    smaller than the block, but its weight must see both whole sides.
    One pass over the blocks on the driver; the other-side tuples are
    shared, not copied.
    """
    weights = [block_weight(len(side1) * len(side2)) for side1, side2 in blocks]
    tasks: list[tuple[NodeRange, BlockItems, array]] = [
        (node_range, [], array("d")) for node_range in ranges
    ]
    # Per side, node id -> the task of the range that owns the node.
    owner: tuple[list, list] = ([], [])
    for task in tasks:
        side, lo, hi = task[0]
        owner[side - 1].extend([task] * (hi - lo))
    for block, weight in zip(blocks, weights):
        for own in (0, 1):
            previous = None
            for eid in block[own]:
                task = owner[own][eid]
                if task is not previous:
                    # Token blocking emits members ascending, so one
                    # range's members are consecutive: entering a range
                    # opens its item for this block.
                    (_, lo, _), items, hoisted = previous = task
                    members: list[int] = []
                    items.append((members, block[1 - own]))
                    hoisted.append(weight)
                members.append(eid - lo)
    return tasks


def beta_range_kernel(
    tasks: list[tuple[NodeRange, BlockItems, array]],
    n1: int,
    n2: int,
    k: int,
    cut: AdaptiveCut,
) -> list[RangeRows]:
    """Value candidates of every node of the given ranges (lines 10-19).

    ``tasks`` come from :func:`restrict_blocks`.  Each range runs the
    fused ``value_topk`` over its restricted blocks with
    itself as the row side and the *whole* other KB as the column side,
    and keeps the row result.
    """
    impl = get_backend()
    out: list[RangeRows] = []
    for (side, lo, hi), items, weights in tasks:
        interned = InternedBlocks.from_block_items(
            items, hi - lo, n2 if side == 1 else n1, weights=weights
        )
        out.append((side, lo, impl.value_topk(interned, k, cut)[0]))
    return out


def restrict_adjacency(adjacency: CSRAdjacency, lo: int, hi: int) -> CSRAdjacency:
    """``adjacency`` with every neighbor list cut down to ids in ``lo..hi-1``.

    Works on the flat arrays (no per-node lists): a node's new offset
    is the number of kept ids before its old one.
    """
    ids = adjacency.ids.tolist()
    keep = [lo <= node < hi for node in ids]
    kept_before = [0, *accumulate(keep)]
    offsets = array("i", [kept_before[offset] for offset in adjacency.offsets])
    return CSRAdjacency(offsets, array("i", compress(ids, keep)))


def gamma_range_kernel(
    ranges: list[NodeRange],
    edges: EdgeArrays,
    adjacency1: CSRAdjacency,
    adjacency2: CSRAdjacency,
    k: int,
    cut: AdaptiveCut,
) -> list[RangeRows]:
    """Neighbor candidates of every node of the given ranges (lines 20-33).

    Each range runs the fused ``gamma_topk`` over *all*
    retained edges (in the ``retained_edges`` kernel's order) with its
    own side's in-neighbor adjacency restricted to the range -- only the
    range's nodes receive evidence -- and keeps their rows.
    """
    impl = get_backend()
    swapped = (edges[1], edges[0], edges[2])
    out: list[RangeRows] = []
    for side, lo, hi in ranges:
        own, other = (adjacency1, adjacency2) if side == 1 else (adjacency2, adjacency1)
        rows, _ = impl.gamma_topk(
            edges if side == 1 else swapped, restrict_adjacency(own, lo, hi), other, k, cut
        )
        out.append((side, lo, rows[lo:hi]))
    return out
