"""Serving-side degradation: deadlines, kernel faults, error stats."""

import io
import json

import pytest

from repro.core.config import MinoanERConfig
from repro.kb.entity import EntityDescription
from repro.kb.knowledge_base import KnowledgeBase
from repro.resilience import FaultInjected, parse_chaos, use_faults
from repro.serving import MatchEngine, ResolutionIndex, iter_requests
from repro.serving.io import decision_to_json


TINY_BUDGET_MS = 1e-6
"""A deadline no real query can meet: expires at the first checkpoint."""


@pytest.fixture(scope="module")
def named_index():
    kb2 = KnowledgeBase(
        [
            EntityDescription(
                "t0", [("label", "unique shared name"), ("city", "bray village")]
            ),
            EntityDescription("t1", [("label", "eltham palace"), ("city", "london")]),
        ],
        name="targets",
    )
    return ResolutionIndex.build(kb2)


class TestDeadlines:
    def test_expired_match_degrades_to_name_evidence(self, named_index):
        engine = MatchEngine(
            named_index, MinoanERConfig(serving_deadline_ms=TINY_BUDGET_MS)
        )
        decision = engine.match(
            EntityDescription("q", [("name", "unique shared name")])
        )
        assert decision.degraded
        assert decision.rule == "R1"
        assert decision.kb2_uri == "t0"
        assert decision.candidates == 0
        stats = engine.stats()
        assert stats["degraded"] == 1
        assert stats["deadline_expired"] == 1

    def test_degraded_answer_without_name_evidence_is_unmatched(self, named_index):
        engine = MatchEngine(
            named_index, MinoanERConfig(serving_deadline_ms=TINY_BUDGET_MS)
        )
        decision = engine.match(EntityDescription("q", [("a", "no such name")]))
        assert decision.degraded
        assert not decision.matched
        assert decision.rule is None

    def test_degraded_decisions_never_enter_the_cache(self, named_index):
        engine = MatchEngine(
            named_index, MinoanERConfig(serving_deadline_ms=TINY_BUDGET_MS)
        )
        entity = EntityDescription("q", [("name", "unique shared name")])
        first = engine.match(entity)
        second = engine.match(entity)
        assert first.degraded and second.degraded
        assert not second.cached
        assert engine.stats()["cache"]["hits"] == 0

    def test_expired_batch_degrades_every_entity(self, named_index):
        engine = MatchEngine(
            named_index, MinoanERConfig(serving_deadline_ms=TINY_BUDGET_MS)
        )
        batch = [
            EntityDescription("q1", [("name", "unique shared name")]),
            EntityDescription("q2", [("name", "nothing shared")]),
        ]
        decisions = engine.match_batch(batch)
        assert [d.query_uri for d in decisions] == ["q1", "q2"]
        assert all(d.degraded for d in decisions)
        assert decisions[0].kb2_uri == "t0"
        assert decisions[1].kb2_uri is None
        stats = engine.stats()
        assert stats["degraded"] == 2
        assert stats["deadline_expired"] == 1  # one budget for the batch

    def test_degraded_field_serialises(self, named_index):
        engine = MatchEngine(
            named_index, MinoanERConfig(serving_deadline_ms=TINY_BUDGET_MS)
        )
        payload = decision_to_json(
            engine.match(EntityDescription("q", [("name", "unique shared name")]))
        )
        assert payload["degraded"] is True
        json.dumps(payload)

    def test_no_deadline_means_no_degradation(self, named_index, mini_pair):
        engine = MatchEngine(named_index)
        decision = engine.match(
            EntityDescription("q", [("name", "unique shared name")])
        )
        assert not decision.degraded
        stats = engine.stats()
        assert stats["degraded"] == 0
        assert stats["deadline_expired"] == 0

    def test_generous_deadline_matches_undeadlined_answers(self, mini_pair):
        index = ResolutionIndex.build(mini_pair.kb2)
        plain = MatchEngine(index)
        deadlined = MatchEngine(
            index, MinoanERConfig(serving_deadline_ms=60_000.0)
        )
        for entity in list(mini_pair.kb1)[:15]:
            assert deadlined.match(entity) == plain.match(entity)


class TestKernelFaults:
    """A kernel that raises fails its lookup like any other error: the
    caller sees the exception, nothing is cached, and the engine answers
    the next query as a clean engine would."""

    def test_kernel_fault_fails_match_and_caches_nothing(self, mini_pair):
        index = ResolutionIndex.build(mini_pair.kb2)
        entity = list(mini_pair.kb1)[0]
        expected = MatchEngine(index).match(entity)
        engine = MatchEngine(index)
        with use_faults(parse_chaos("kernel:numpy=error*1")) as plan:
            with pytest.raises(FaultInjected):
                engine.match(entity)
            decision = engine.match(entity)  # budget spent: recovers
        assert plan.total_fired() == 1
        assert not decision.cached  # the failed lookup cached nothing
        assert decision == expected

    def test_kernel_fault_fails_match_batch(self, mini_pair):
        index = ResolutionIndex.build(mini_pair.kb2)
        batch = list(mini_pair.kb1)[:10]
        expected = MatchEngine(index).match_batch(batch)
        engine = MatchEngine(index)
        with use_faults(parse_chaos("kernel:numpy=error*1")) as plan:
            with pytest.raises(FaultInjected):
                engine.match_batch(batch)
            decisions = engine.match_batch(batch)
        assert plan.total_fired() == 1
        assert decisions == expected

    def test_serve_writes_one_error_record_per_kernel_fault(self, tmp_path, capsys):
        from repro.cli import main
        from repro.datasets.profiles import scaled_profile
        from repro.kb.rdf import save_ntriples

        pair = scaled_profile("restaurant", 0.2)
        kb2_path = tmp_path / "kb2.nt"
        save_ntriples(pair.kb2, kb2_path)
        index_path = tmp_path / "kb2.idx"
        assert main(["index", str(kb2_path), "-o", str(index_path)]) == 0
        queries = list(pair.kb1)[:8]
        requests = tmp_path / "queries.jsonl"
        requests.write_text(
            "".join(
                json.dumps({"uri": e.uri, "pairs": [list(p) for p in e.pairs]}) + "\n"
                for e in queries
            ),
            encoding="utf-8",
        )
        capsys.readouterr()

        assert main(
            ["serve", str(index_path), "-i", str(requests), "--chaos", "kernel:numpy=error*2"]
        ) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        errors = [row for row in rows if "error" in row]
        answers = [row for row in rows if "error" not in row]
        assert len(rows) == len(queries)
        assert len(errors) == 2
        assert all(set(row) == {"error", "query"} for row in errors)
        assert all("match" in row and "latency_ms" in row for row in answers)
        assert [row["query"] for row in rows] == [e.uri for e in queries]


class TestServeFaults:
    def test_injected_match_fault_propagates_uncached(self, named_index):
        engine = MatchEngine(named_index)
        entity = EntityDescription("q", [("name", "unique shared name")])
        with use_faults(parse_chaos("serve:match=error*1")):
            with pytest.raises(FaultInjected):
                engine.match(entity)
            decision = engine.match(entity)  # budget spent: recovers
        assert decision.kb2_uri == "t0"
        assert not decision.cached  # the failed lookup cached nothing

    def test_request_errors_land_on_the_engine_recorder(self, named_index):
        engine = MatchEngine(named_index)
        stream = io.StringIO(
            '{"pairs": [["a", "1"]]}\n'
            "not json\n"
            '{"pairs": [["a", NaN]]}\n'
        )
        items = list(iter_requests(stream, recorder=engine.recorder))
        assert [type(item).__name__ for item in items] == [
            "EntityDescription", "RequestError", "RequestError",
        ]
        assert engine.stats()["request_errors"] == 2
