"""Tests for dynamic (adaptive) candidate pruning."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MinoanERConfig
from repro.core.pipeline import MinoanER
from repro.graph.pruning import ADAPTIVE_CUT, adaptive_candidates, adaptive_cut, top_k_candidates


class TestAdaptiveCandidates:
    def test_cuts_at_large_gap(self):
        scores = {1: 10.0, 2: 9.5, 3: 0.1, 4: 0.05}
        assert adaptive_candidates(scores, 4, minimum=2) == ((1, 10.0), (2, 9.5))

    def test_flat_distribution_keeps_full_k(self):
        scores = {i: 1.0 - 0.01 * i for i in range(10)}
        assert len(adaptive_candidates(scores, 8)) == 8

    def test_respects_minimum(self):
        scores = {1: 100.0, 2: 0.001, 3: 0.001, 4: 0.001}
        kept = adaptive_candidates(scores, 4, minimum=3)
        assert len(kept) == 3

    def test_never_exceeds_k(self):
        scores = {i: 1.0 for i in range(20)}
        assert len(adaptive_candidates(scores, 5)) <= 5

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            adaptive_candidates({}, 5, gap_ratio=0.0)
        with pytest.raises(ValueError):
            adaptive_candidates({}, 5, minimum=0)

    @given(
        scores=st.dictionaries(
            st.integers(0, 30), st.floats(0.01, 10.0, allow_nan=False), max_size=20
        ),
        k=st.integers(1, 15),
    )
    @settings(max_examples=80)
    def test_adaptive_is_prefix_of_top_k(self, scores, k):
        full = top_k_candidates(scores, k)
        adaptive = adaptive_candidates(scores, k)
        assert adaptive == full[: len(adaptive)]


class TestDynamicPruningConfig:
    def test_config_validation(self):
        # dynamic_pruning switches on one cut; the cut validates its own
        # parameters, so that one is a valid cut and others are refused.
        gap_ratio, minimum = ADAPTIVE_CUT
        assert adaptive_cut((), gap_ratio, minimum) == ()
        with pytest.raises(ValueError):
            adaptive_cut((), 1.5, minimum)

    def test_pipeline_with_dynamic_pruning(self, mini_pair):
        fixed = MinoanER().resolve(mini_pair.kb1, mini_pair.kb2)
        dynamic = MinoanER(MinoanERConfig(dynamic_pruning=True)).resolve(
            mini_pair.kb1, mini_pair.kb2
        )
        gt = mini_pair.ground_truth
        # Dynamic pruning must keep a (weak) subset of each node's list,
        # so the candidate graph shrinks while quality stays close.
        assert dynamic.graph.edge_count() <= fixed.graph.edge_count()
        assert dynamic.evaluate(gt).f1 > fixed.evaluate(gt).f1 - 0.1

    def test_candidate_lists_are_prefixes(self, mini_pair):
        fixed = MinoanER().resolve(mini_pair.kb1, mini_pair.kb2)
        dynamic = MinoanER(MinoanERConfig(dynamic_pruning=True)).resolve(
            mini_pair.kb1, mini_pair.kb2
        )
        for eid in range(fixed.graph.n1):
            full = fixed.graph.value_candidates(1, eid)
            cut = dynamic.graph.value_candidates(1, eid)
            assert cut == full[: len(cut)]
