"""Property-based tests of the matcher over random pruned graphs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MinoanERConfig
from repro.core.matcher import NonIterativeMatcher
from repro.core.rank_aggregation import top_aggregate_candidate
from repro.core.rules import name_rule
from repro.graph.blocking_graph import DisjunctiveBlockingGraph
from repro.kernels import RankedLists
from tests.core.matcher_reference import reference_match, value_rule


@st.composite
def random_graph(draw):
    n1 = draw(st.integers(1, 6))
    n2 = draw(st.integers(1, 6))

    def candidate_lists(n, other_n, max_k=3):
        lists = []
        for _ in range(n):
            size = draw(st.integers(0, min(max_k, other_n)))
            others = draw(
                st.lists(
                    st.integers(0, other_n - 1), min_size=size, max_size=size, unique=True
                )
            )
            weights = sorted(
                (draw(st.floats(0.05, 5.0, allow_nan=False)) for _ in others),
                reverse=True,
            )
            lists.append(tuple(zip(others, weights)))
        return lists

    names_1: dict[int, int] = {}
    names_2: dict[int, int] = {}
    if draw(st.booleans()) and n1 and n2:
        eid1 = draw(st.integers(0, n1 - 1))
        eid2 = draw(st.integers(0, n2 - 1))
        names_1[eid1] = eid2
        names_2[eid2] = eid1

    return DisjunctiveBlockingGraph(
        n1=n1,
        n2=n2,
        name_matches_1=names_1,
        name_matches_2=names_2,
        value_candidates_1=candidate_lists(n1, n2),
        value_candidates_2=candidate_lists(n2, n1),
        neighbor_candidates_1=candidate_lists(n1, n2),
        neighbor_candidates_2=candidate_lists(n2, n1),
    )


class TestMatcherProperties:
    @given(graph=random_graph())
    @settings(max_examples=120)
    def test_matches_are_graph_pairs(self, graph):
        result = NonIterativeMatcher(MinoanERConfig()).match(graph)
        pairs = graph.undirected_pairs()
        assert result.matches <= pairs

    @given(graph=random_graph())
    @settings(max_examples=120)
    def test_unique_mapping_holds(self, graph):
        result = NonIterativeMatcher(MinoanERConfig()).match(graph)
        lefts = [a for a, _ in result.matches]
        rights = [b for _, b in result.matches]
        assert len(lefts) == len(set(lefts))
        assert len(rights) == len(set(rights))

    @given(graph=random_graph())
    @settings(max_examples=120)
    def test_reciprocity_filter_only_removes(self, graph):
        with_r4 = NonIterativeMatcher(MinoanERConfig()).match(graph)
        proposed = {pair for pair, _ in with_r4.proposed}
        assert with_r4.matches <= proposed
        assert with_r4.removed_by_reciprocity <= proposed
        assert not with_r4.matches & with_r4.removed_by_reciprocity

    @given(graph=random_graph())
    @settings(max_examples=120)
    def test_deterministic(self, graph):
        first = NonIterativeMatcher(MinoanERConfig()).match(graph)
        second = NonIterativeMatcher(MinoanERConfig()).match(graph)
        assert first.matches == second.matches
        assert first.rule_of == second.rule_of

    @given(graph=random_graph())
    @settings(max_examples=120)
    def test_every_match_attributed_and_scored(self, graph):
        result = NonIterativeMatcher(MinoanERConfig()).match(graph)
        for pair in result.matches:
            assert result.rule_of[pair] in {"R1", "R2", "R3"}
            assert result.scores[pair] > 0.0

    @given(graph=random_graph())
    @settings(max_examples=120)
    def test_name_matches_always_survive(self, graph):
        """Alpha edges are reciprocal by construction and outrank all
        conflicts, so R1 pairs always reach the final match set."""
        result = NonIterativeMatcher(MinoanERConfig()).match(graph)
        for eid1 in range(graph.n1):
            eid2 = graph.name_match(1, eid1)
            if eid2 is not None and graph.name_match(2, eid2) == eid1:
                assert (eid1, eid2) in result.matches


def unrestricted_match(graph, config):
    """The matcher as it was before R3 learned its scope: R1, R2, then
    R3 over *every* unmatched node of both sides, then the matcher's
    shared tail (R4 and unique mapping)."""
    collected = [(pair, score, "R1") for pair, score in name_rule(graph)]
    matched_1 = {pair[0] for pair, _, _ in collected}
    matched_2 = {pair[1] for pair, _, _ in collected}
    for pair, score in value_rule(graph, matched_1, matched_2):
        collected.append((pair, score, "R2"))
        matched_1.add(pair[0])
        matched_2.add(pair[1])
    for side, size in ((1, graph.n1), (2, graph.n2)):
        claimed_own = matched_1 if side == 1 else matched_2
        claimed_other = matched_2 if side == 1 else matched_1
        for eid in range(size):
            if eid in claimed_own:
                continue
            best = top_aggregate_candidate(
                graph.value_candidates(side, eid),
                graph.neighbor_candidates(side, eid),
                config.theta,
            )
            if best is None:
                continue
            partner, score = best
            collected.append(((eid, partner) if side == 1 else (partner, eid), score, "R3"))
            claimed_own.add(eid)
            claimed_other.add(partner)
    return NonIterativeMatcher(config).assemble(graph, collected)


class TestR3Scope:
    """With R4 on, R3's side-2 sweep visits only the side-2 nodes some
    side-1 node points at; the final decisions are exactly those of the
    unrestricted sweep followed by R4."""

    @given(graph=random_graph())
    @settings(max_examples=300)
    def test_decisions_equal_unrestricted_sweep(self, graph):
        config = MinoanERConfig()
        scoped = NonIterativeMatcher(config).match(graph)
        reference = unrestricted_match(graph, config)
        assert scoped.matches == reference.matches
        assert scoped.rule_of == reference.rule_of
        assert scoped.scores == reference.scores
        # Only proposals R4 removed are missing, and nothing is added.
        missing = set(reference.proposed) - set(scoped.proposed)
        assert set(scoped.proposed) <= set(reference.proposed)
        assert {pair for pair, _ in missing} <= reference.removed_by_reciprocity
        assert scoped.removed_by_reciprocity <= reference.removed_by_reciprocity

    @given(graph=random_graph())
    @settings(max_examples=120)
    def test_without_reciprocity_nothing_is_skipped(self, graph):
        config = MinoanERConfig(use_reciprocity=False)
        scoped = NonIterativeMatcher(config).match(graph)
        assert scoped.proposed == unrestricted_match(graph, config).proposed

    def test_unreachable_node_was_the_only_removal(self):
        """b1 points at a0 but a0 points only at b0: the full sweep's
        proposal (a0, b1) was R4's only removal; the scoped sweep never
        makes it, and the decisions do not change."""
        graph = DisjunctiveBlockingGraph(
            n1=1,
            n2=2,
            name_matches_1={},
            name_matches_2={},
            value_candidates_1=[((0, 2.0),)],
            value_candidates_2=[((0, 2.0),), ((0, 0.5),)],
            neighbor_candidates_1=[()],
            neighbor_candidates_2=[(), ()],
        )
        config = MinoanERConfig()
        reference = unrestricted_match(graph, config)
        assert reference.removed_by_reciprocity == {(0, 1)}
        assert ((0, 1), "R3") in reference.proposed
        scoped = NonIterativeMatcher(config).match(graph)
        assert graph.targets_of(1) == [0]
        assert scoped.removed_by_reciprocity == set()
        assert scoped.proposed == [((0, 0), "R2")]
        assert (scoped.matches, scoped.rule_of, scoped.scores) == (
            reference.matches,
            reference.rule_of,
            reference.scores,
        )


USE_TOGGLES = (
    "use_name_rule",
    "use_value_rule",
    "use_rank_aggregation",
    "use_reciprocity",
    "use_neighbor_evidence",
)


def ranked(lists) -> RankedLists:
    """Tuple candidate lists as the kernels lay them out."""
    offsets = np.cumsum([0] + [len(row) for row in lists])
    ids = np.array([c for row in lists for c, _ in row], dtype=np.int64)
    scores = np.array([s for row in lists for _, s in row], dtype=np.float64)
    return RankedLists(offsets, ids, scores)


def as_ranked(graph: DisjunctiveBlockingGraph) -> DisjunctiveBlockingGraph:
    """The same graph with every candidate list a :class:`RankedLists`."""
    sizes = {1: graph.n1, 2: graph.n2}
    names = [
        {eid: graph.name_match(side, eid) for eid in range(n) if graph.name_match(side, eid) is not None}
        for side, n in sizes.items()
    ]
    value = [ranked([graph.value_candidates(side, eid) for eid in range(n)]) for side, n in sizes.items()]
    neighbor = [
        ranked([graph.neighbor_candidates(side, eid) for eid in range(n)]) for side, n in sizes.items()
    ]
    return DisjunctiveBlockingGraph(graph.n1, graph.n2, *names, *value, *neighbor)


def assert_same_result(result, reference) -> None:
    """All five fields equal, in order, as python values; scores bit for bit."""
    assert result.matches == reference.matches
    assert list(result.rule_of.items()) == list(reference.rule_of.items())
    assert [(pair, score.hex()) for pair, score in result.scores.items()] == [
        (pair, score.hex()) for pair, score in reference.scores.items()
    ]
    assert result.proposed == reference.proposed
    assert result.removed_by_reciprocity == reference.removed_by_reciprocity
    for (eid1, eid2), _ in result.proposed:
        assert type(eid1) is int and type(eid2) is int
    assert all(type(score) is float for score in result.scores.values())


def config_with(toggle, theta=0.6) -> MinoanERConfig:
    config = MinoanERConfig(theta=theta)
    return config if toggle is None else config.with_options(**{toggle: False})


class TestArrayMatcherEqualsOracle:
    """The array passes decide exactly what the per-node loops decide
    (``tests/core/matcher_reference.py``), on hand-built tuples and on
    the kernels' :class:`RankedLists` alike.  The example count comes
    from the hypothesis profile (``--hypothesis-profile deep`` in CI)."""

    @pytest.mark.parametrize("toggle", (None, *USE_TOGGLES))
    @given(graph=random_graph(), theta=st.sampled_from((0.6, 0.5, 0.3)))
    @settings(deadline=None)
    def test_all_fields_equal(self, toggle, graph, theta):
        config = config_with(toggle, theta)
        reference = reference_match(graph, config)
        assert_same_result(NonIterativeMatcher(config).match(graph), reference)
        assert_same_result(NonIterativeMatcher(config).match(as_ranked(graph)), reference)

    @staticmethod
    def check(graph, config=None):
        config = config or MinoanERConfig()
        result = NonIterativeMatcher(config).match(graph)
        assert_same_result(result, reference_match(graph, config))
        return result

    def test_candidate_in_both_lists_sums_two_terms(self):
        graph = DisjunctiveBlockingGraph(
            1, 2, {}, {},
            [((1, 0.9), (0, 0.5))], [((0, 0.5),), ((0, 0.5),)],
            [((0, 3.0), (1, 1.0))], [(), ()],
        )
        theta = 0.6
        result = self.check(graph, MinoanERConfig(theta=theta))
        # b1: value rank 2/2, neighbor rank 1/2; b0: value 1/2, neighbor 2/2.
        b1 = theta * (2 / 2) + (1.0 - theta) * (1 / 2)
        assert b1 > theta * (1 / 2) + (1.0 - theta) * (2 / 2)
        assert result.rule_of == {(0, 1): "R3"}
        assert result.scores[(0, 1)].hex() == b1.hex()

    def test_aggregate_tie_breaks_on_ascending_id(self):
        graph = DisjunctiveBlockingGraph(
            1, 2, {}, {},
            [((1, 0.9), (0, 0.5))], [((0, 0.5),), ((0, 0.5),)],
            [((0, 2.0), (1, 1.0))], [(), ()],
        )
        result = self.check(graph, MinoanERConfig(theta=0.5))
        assert result.proposed[0] == ((0, 0), "R3")
        assert result.rule_of == {(0, 0): "R3"}
        assert result.scores[(0, 0)] == 0.75

    def test_partner_claimed_by_r1_is_still_proposed(self):
        graph = DisjunctiveBlockingGraph(
            2, 1, {0: 0}, {0: 0},
            [((0, 0.5),), ((0, 0.9),)], [((1, 0.9), (0, 0.5))],
            [(), ()], [()],
        )
        result = self.check(graph)
        assert result.proposed == [((0, 0), "R1"), ((1, 0), "R3")]
        assert result.rule_of == {(0, 0): "R1"}

    def test_value_rule_runs_on_the_smaller_side_two(self):
        graph = DisjunctiveBlockingGraph(
            3, 1, {}, {},
            [(), (), ((0, 1.7),)], [((2, 1.7),)],
            [(), (), ()], [()],
        )
        result = self.check(graph)
        assert result.proposed == [((2, 0), "R2")]
        assert result.rule_of == {(2, 0): "R2"}

    @pytest.mark.parametrize("sizes", [(0, 2), (2, 0), (0, 0)])
    def test_empty_side(self, sizes):
        n1, n2 = sizes
        graph = DisjunctiveBlockingGraph(n1, n2, {}, {}, [()] * n1, [()] * n2, [()] * n1, [()] * n2)
        result = self.check(graph)
        assert (result.matches, result.proposed) == (set(), [])

    def test_ranked_lists_and_tuples_decide_alike(self):
        graph = DisjunctiveBlockingGraph(
            3, 3, {0: 0}, {0: 0},
            [((0, 0.2),), ((1, 2.5), (2, 0.5)), ((2, 0.3),)],
            [((0, 0.2),), ((1, 2.5),), ((2, 0.3), (1, 0.2))],
            [(), (), ((2, 4.0),)],
            [(), (), ((2, 4.0),)],
        )
        assert_same_result(self.check(as_ranked(graph)), self.check(graph))
