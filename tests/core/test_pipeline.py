"""Unit and integration tests for the end-to-end MinoanER pipeline."""

import pytest

from repro.core.config import MinoanERConfig
from repro.core.pipeline import MinoanER
from repro.kb.entity import EntityDescription
from repro.kb.knowledge_base import KnowledgeBase


class TestResolveOnFigure1(object):
    def test_finds_all_figure1_matches(self, restaurant_kbs):
        kb1, kb2 = restaurant_kbs
        result = MinoanER(MinoanERConfig(candidates_k=5)).resolve(kb1, kb2)
        matches = result.uri_matches()
        assert ("wd:JohnLakeA", "db:JonnyLake") in matches  # R1 (name "J. Lake")
        assert ("wd:Restaurant1", "db:Restaurant2") in matches
        assert ("wd:Bray", "db:Berkshire") in matches

    def test_evaluation(self, restaurant_kbs):
        kb1, kb2 = restaurant_kbs
        result = MinoanER().resolve(kb1, kb2)
        gt = {
            (kb1.id_of("wd:Restaurant1"), kb2.id_of("db:Restaurant2")),
            (kb1.id_of("wd:JohnLakeA"), kb2.id_of("db:JonnyLake")),
        }
        report = result.evaluate(gt)
        assert report.recall == 1.0

    def test_timings_recorded(self, restaurant_kbs):
        result = MinoanER().resolve(*restaurant_kbs)
        assert set(result.timings) == {"statistics", "blocking", "graph", "matching", "total"}
        assert result.timings["total"] >= 0

    def test_timings_complete_even_when_assembled_by_hand(self, restaurant_kbs):
        # Regression: a ResolutionResult built with partial (or no)
        # timings must still expose every documented phase key.
        from repro.core.pipeline import TIMING_PHASES, ResolutionResult

        reference = MinoanER().resolve(*restaurant_kbs)
        partial = ResolutionResult(
            kb1=reference.kb1,
            kb2=reference.kb2,
            matching=reference.matching,
            graph=reference.graph,
            name_block_collection=reference.name_block_collection,
            token_block_collection=reference.token_block_collection,
            timings={"matching": 0.25},
        )
        assert set(partial.timings) == set(TIMING_PHASES)
        assert partial.timings["matching"] == 0.25
        assert partial.timings["blocking"] == 0.0

        bare = ResolutionResult(
            kb1=reference.kb1,
            kb2=reference.kb2,
            matching=reference.matching,
            graph=reference.graph,
            name_block_collection=reference.name_block_collection,
            token_block_collection=reference.token_block_collection,
        )
        assert set(bare.timings) == set(TIMING_PHASES)
        assert all(value == 0.0 for value in bare.timings.values())


class TestTracing:
    def test_spans_cover_every_timing_phase(self, restaurant_kbs):
        from repro.core.pipeline import TIMING_PHASES
        from repro.obs import Recorder, use_recorder

        recorder = Recorder()
        with use_recorder(recorder):
            result = MinoanER().resolve(*restaurant_kbs)
        names = recorder.span_names()
        # "total" is the root "resolve" span; the other phases appear
        # under their own names.
        for phase in TIMING_PHASES:
            assert ("resolve" if phase == "total" else phase) in names
        # timings is a derived view of the recorded spans.
        root = next(s for s in recorder.spans() if s.name == "resolve")
        assert result.timings["total"] == root.seconds
        for phase in ("statistics", "blocking", "graph", "matching"):
            span = next(s for s in recorder.spans() if s.name == phase)
            assert result.timings[phase] == span.seconds
            assert span.parent_id == root.span_id
        assert recorder.counters().get("kernels.dispatch.numpy", 0) or (
            recorder.counters().get("kernels.dispatch.python", 0)
        )

    def test_null_recorder_disables_recording(self, restaurant_kbs):
        from repro.obs import NULL_RECORDER, Recorder, use_recorder
        from repro.parallel.context import ParallelContext
        from repro.parallel.pipeline import ParallelMinoanER

        recorder = Recorder()
        with use_recorder(recorder), ParallelContext(num_workers=2) as context:
            results = [
                MinoanER(recorder=NULL_RECORDER).resolve(*restaurant_kbs),
                ParallelMinoanER(context=context, recorder=NULL_RECORDER).resolve(
                    *restaurant_kbs
                ),
            ]
        assert recorder.spans() == []
        # Timings stay populated even with tracing off.
        assert all(result.timings["total"] > 0.0 for result in results)

    def test_explicit_recorder_wins_over_ambient(self, restaurant_kbs):
        from repro.obs import Recorder, use_recorder

        explicit = Recorder()
        ambient = Recorder()
        with use_recorder(ambient):
            MinoanER(recorder=explicit).resolve(*restaurant_kbs)
        assert "resolve" in explicit.span_names()
        assert ambient.spans() == []

    def test_tracing_does_not_change_matches(self, restaurant_kbs):
        from repro.obs import Recorder, use_recorder

        baseline = MinoanER().resolve(*restaurant_kbs).uri_matches()
        with use_recorder(Recorder()):
            traced = MinoanER().resolve(*restaurant_kbs).uri_matches()
        assert traced == baseline


class TestResolveOnSynthetic:
    def test_quality_floor_on_easy_pair(self, mini_pair):
        result = MinoanER().resolve(mini_pair.kb1, mini_pair.kb2)
        report = result.evaluate(mini_pair.ground_truth)
        assert report.f1 > 0.85

    def test_quality_floor_on_hard_pair(self, hard_pair):
        result = MinoanER().resolve(hard_pair.kb1, hard_pair.kb2)
        report = result.evaluate(hard_pair.ground_truth)
        assert report.f1 > 0.6

    def test_neighbor_evidence_helps_on_hard_pair(self, hard_pair):
        full = MinoanER().resolve(hard_pair.kb1, hard_pair.kb2)
        blind = MinoanER(MinoanERConfig(use_neighbor_evidence=False)).resolve(
            hard_pair.kb1, hard_pair.kb2
        )
        gt = hard_pair.ground_truth
        assert full.evaluate(gt).f1 >= blind.evaluate(gt).f1

    def test_deterministic(self, mini_pair):
        first = MinoanER().resolve(mini_pair.kb1, mini_pair.kb2)
        second = MinoanER().resolve(mini_pair.kb1, mini_pair.kb2)
        assert first.matches == second.matches

    def test_purging_disabled_still_works(self, mini_pair):
        config = MinoanERConfig(purge_blocks=False)
        result = MinoanER(config).resolve(mini_pair.kb1, mini_pair.kb2)
        assert result.evaluate(mini_pair.ground_truth).recall > 0.8

    def test_partial_vs_complete_gold(self, mini_pair):
        result = MinoanER().resolve(mini_pair.kb1, mini_pair.kb2)
        partial = result.evaluate(mini_pair.ground_truth, partial_gold=True)
        complete = result.evaluate(mini_pair.ground_truth, partial_gold=False)
        assert partial.precision >= complete.precision
        assert partial.recall == complete.recall


class TestEdgeCases:
    def test_single_entity_kbs(self):
        kb1 = KnowledgeBase([EntityDescription("a", [("l", "fat duck bray")])], "k1")
        kb2 = KnowledgeBase([EntityDescription("b", [("n", "fat duck bray")])], "k2")
        result = MinoanER().resolve(kb1, kb2)
        assert result.uri_matches() == {("a", "b")}

    def test_disjoint_kbs_produce_no_matches(self):
        kb1 = KnowledgeBase([EntityDescription("a", [("l", "alpha beta")])], "k1")
        kb2 = KnowledgeBase([EntityDescription("b", [("n", "gamma delta")])], "k2")
        result = MinoanER().resolve(kb1, kb2)
        assert result.matches == set()

    def test_entities_without_literals(self):
        kb1 = KnowledgeBase(
            [EntityDescription("a", [("r", "b")]), EntityDescription("b")], "k1"
        )
        kb2 = KnowledgeBase([EntityDescription("c", [("n", "text here")])], "k2")
        result = MinoanER().resolve(kb1, kb2)
        assert result.matches == set()

    def test_empty_kb(self):
        kb1 = KnowledgeBase([], "k1")
        kb2 = KnowledgeBase([EntityDescription("b", [("n", "x")])], "k2")
        result = MinoanER().resolve(kb1, kb2)
        assert result.matches == set()
