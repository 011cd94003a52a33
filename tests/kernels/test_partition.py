"""Node-range partitioning: what a partition of the parallel graph owns."""

from repro.kernels import CSRAdjacency, block_weight
from repro.kernels.partition import restrict_adjacency, restrict_blocks


def test_restricted_blocks_keep_global_weights_and_local_ids():
    blocks = [((0, 2, 3), (1,)), ((1,), (0, 1)), ((3,), (0,))]
    ranges = [(1, 0, 2), (1, 2, 4), (2, 0, 2)]
    tasks = restrict_blocks(blocks, ranges)
    assert [task[0] for task in tasks] == ranges
    weights = [block_weight(3), block_weight(2), block_weight(1)]
    # Side-1 nodes 0..1: block 0 restricted to node 0, then all of block 1.
    assert tasks[0][1] == [([0], (1,)), ([1], (0, 1))]
    assert list(tasks[0][2]) == weights[:2]
    # Side-1 nodes 2..3 are ids 0..1 locally; block 1 has no member here.
    assert tasks[1][1] == [([0, 1], (1,)), ([1], (0,))]
    assert list(tasks[1][2]) == [weights[0], weights[2]]
    # Side 2 owns the second tuple and sees the whole first one.
    assert tasks[2][1] == [([1], (0, 2, 3)), ([0, 1], (1,)), ([0], (3,))]
    assert list(tasks[2][2]) == weights


def test_restricted_adjacency_keeps_only_in_range_neighbors():
    adjacency = CSRAdjacency.from_lists([(1, 4), (), (0, 2, 3), (4,)])
    restricted = restrict_adjacency(adjacency, 2, 5)
    assert len(restricted) == len(adjacency)
    assert restricted.to_lists() == [[4], [], [2, 3], [4]]
