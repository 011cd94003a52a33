"""Block purging: discard oversized (stopword-like) token blocks.

Section 3.3: "we bound the number of computations by removing
excessively large blocks that correspond to highly frequent tokens
(e.g., stop-words)", citing the Block Purging of Papadakis et al.
(TKDE 2013).  The paper reports that after purging, the retained blocks
"involve two orders of magnitude fewer comparisons than the brute-force
approach, without any significant impact on recall" (Table 2 confirms:
0.08%-1.3% of the Cartesian product across the four datasets).

This module implements purging as a *comparison budget*: blocks are
admitted in ascending order of their suggested comparisons (small,
discriminative blocks first -- these carry the valueSim signal) until
the cumulative count reaches :data:`DEFAULT_BUDGET_RATIO` of the
Cartesian product; every larger block is dropped.  A token frequent
enough to overflow the budget behaves like a stopword and carries
almost no matching evidence anyway, since its blocks would contribute
``1/log2(|b1|*|b2|+1) ~ 0``.

The threshold is a whole cardinality level: blocks with equally many
comparisons are kept or dropped together, so the result does not depend
on tie order.
"""

from __future__ import annotations

from typing import Iterable

from repro.blocking.base import BlockCollection

DEFAULT_BUDGET_RATIO = 0.01
"""Retain ~1% of the brute-force comparisons (two orders of magnitude
fewer), the regime the paper's Table 2 reports."""

MIN_BUDGET = 1000
"""Purging exists to bound a quadratic blowup; below this many
comparisons there is nothing to bound, so tiny inputs keep all blocks."""


def purging_threshold_from_counts(counts: Iterable[int], cartesian: int) -> int:
    """:func:`purging_threshold` over bare per-block comparison counts.

    The serving engine uses this form: at query time a block is a
    ``(query entities, posting list)`` pair whose comparison count is
    known without materialising a :class:`~repro.blocking.base.Block`.
    """
    per_level: dict[int, int] = {}
    for comparisons in counts:
        per_level[comparisons] = per_level.get(comparisons, 0) + comparisons
    levels = sorted(per_level)
    if not levels:
        return 0
    budget = max(DEFAULT_BUDGET_RATIO * cartesian, float(MIN_BUDGET))
    threshold = levels[0]
    cumulative = 0
    for level in levels:
        cumulative += per_level[level]
        if cumulative > budget and level != levels[0]:
            break
        threshold = level
    return threshold


def purging_threshold(blocks: BlockCollection, cartesian: int) -> int:
    """Maximum per-block comparison count retained by the budget.

    Admits whole cardinality levels (ascending by per-block comparisons)
    while the running total stays within ``DEFAULT_BUDGET_RATIO *
    cartesian`` (floored at :data:`MIN_BUDGET`).  At least the smallest
    level is always kept, so purging never empties a non-empty
    collection.
    """
    return purging_threshold_from_counts(
        (block.comparisons for block in blocks), cartesian
    )


def purge_blocks(
    blocks: BlockCollection, cartesian: int | None = None
) -> BlockCollection:
    """Drop blocks suggesting more comparisons than the purging threshold.

    ``cartesian`` is ``|E1| * |E2|``, the brute-force comparison count
    the budget is relative to.  It defaults to the collection's own
    total comparisons (a conservative stand-in when the KB sizes are
    unknown).

    Returns a *new* collection; the input is never mutated.
    """
    if cartesian is None:
        cartesian = blocks.total_comparisons()
    max_comparisons = purging_threshold(blocks, cartesian)
    return blocks.filter(lambda block: block.comparisons <= max_comparisons)
