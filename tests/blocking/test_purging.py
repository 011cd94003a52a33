"""Unit tests for comparison-budget Block Purging."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking.base import Block, BlockCollection
from repro.blocking.purging import (
    DEFAULT_BUDGET_RATIO,
    MIN_BUDGET,
    purge_blocks,
    purging_threshold,
)


def collection_of(shapes: list[tuple[int, int]]) -> BlockCollection:
    blocks = []
    for index, (n1, n2) in enumerate(shapes):
        blocks.append(Block(f"b{index}", list(range(n1)), list(range(n2))))
    return BlockCollection(blocks)


class TestThreshold:
    def test_keeps_everything_under_budget(self):
        blocks = collection_of([(1, 1), (1, 2), (2, 2)])
        assert purging_threshold(blocks, cartesian=10_000) == 4

    def test_drops_oversized_levels(self):
        blocks = collection_of([(1, 1)] * 10 + [(100, 100)])
        # 10,000-comparison block exceeds the floored budget of 1,000.
        threshold = purging_threshold(blocks, cartesian=100 * 100)
        assert threshold == 1

    def test_smallest_level_always_kept(self):
        blocks = collection_of([(50, 50)])
        assert purging_threshold(blocks, cartesian=2500) == 2500

    def test_empty_collection(self):
        assert purging_threshold(BlockCollection(), cartesian=100) == 0

    def test_whole_levels_kept_or_dropped(self):
        # Two blocks at the same level: both survive or both go.
        blocks = collection_of([(1, 1), (3, 3), (3, 3)])
        threshold = purging_threshold(blocks, cartesian=100)
        purged = purge_blocks(blocks, cartesian=100)
        same_level = [b for b in blocks if b.comparisons == 9]
        survivors = [b for b in purged if b.comparisons == 9]
        assert len(survivors) in (0, len(same_level))
        assert threshold in (1, 9)


class TestPurgeBlocks:
    def test_input_not_mutated(self):
        blocks = collection_of([(1, 1), (9, 9)])
        purge_blocks(blocks, cartesian=81)
        assert len(blocks) == 2

    def test_defaults_use_own_total_when_cartesian_missing(self):
        blocks = collection_of([(1, 1), (2, 2)])
        purged = purge_blocks(blocks)
        assert len(purged) >= 1


class TestPurgingProperties:
    @given(
        shapes=st.lists(
            st.tuples(st.integers(1, 20), st.integers(1, 20)), min_size=1, max_size=30
        ),
        cartesian=st.integers(1, 1_000_000),
    )
    @settings(max_examples=60)
    def test_never_empties_and_respects_level_order(self, shapes, cartesian):
        blocks = collection_of(shapes)
        purged = purge_blocks(blocks, cartesian=cartesian)
        assert len(purged) >= 1
        kept = {b.comparisons for b in purged}
        dropped = {b.comparisons for b in blocks} - kept
        if kept and dropped:
            assert max(kept) < min(dropped)

    @given(
        shapes=st.lists(
            st.tuples(st.integers(1, 10), st.integers(1, 10)), min_size=2, max_size=20
        )
    )
    @settings(max_examples=60)
    def test_budget_exceeded_only_by_first_level(self, shapes):
        blocks = collection_of(shapes)
        cartesian = 1000
        purged = purge_blocks(blocks, cartesian=cartesian)
        total = purged.total_comparisons()
        smallest_level = min(b.comparisons for b in blocks)
        smallest_total = sum(
            b.comparisons for b in blocks if b.comparisons == smallest_level
        )
        budget = max(DEFAULT_BUDGET_RATIO * cartesian, MIN_BUDGET)
        # Retained comparisons stay within budget, except that the
        # smallest level is always admitted.
        assert total <= budget or total == smallest_total
