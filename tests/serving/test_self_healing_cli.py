"""Serve-path self-healing: admission at the engine, ledger errors at
the CLI, explicit shed records on the wire.

Runs ``repro serve`` in-process (``cli.main``) -- these paths need no
subprocess isolation and the suite stays fast.
"""

import json

import pytest

from repro.cli import main
from repro.core.config import MinoanERConfig
from repro.kb.entity import EntityDescription
from repro.resilience import LoadShedError
from repro.serving import MatchEngine, ResolutionIndex
from repro.serving.io import entity_to_json
from repro.serving.live import UpsertLedger


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def index_path(mini_pair, tmp_path):
    index = ResolutionIndex.build(mini_pair.kb2, MinoanERConfig())
    path = tmp_path / "kb2.idx"
    index.save(path)
    return path


def write_queries(tmp_path, pair, count=3, source=None):
    queries = tmp_path / "queries.jsonl"
    with queries.open("w", encoding="utf-8") as handle:
        for entity in list(pair.kb1)[:count]:
            payload = entity_to_json(entity)
            if source is not None:
                payload["source"] = source
            handle.write(json.dumps(payload) + "\n")
    return queries


def stdout_records(capsys):
    captured = capsys.readouterr()
    return [json.loads(line) for line in captured.out.splitlines()], captured.err


# ----------------------------------------------------------------------
# Engine-level admission
# ----------------------------------------------------------------------
class TestEngineAdmission:
    def test_no_knobs_no_admission_layer(self, mini_pair):
        config = MinoanERConfig()
        engine = MatchEngine(ResolutionIndex.build(mini_pair.kb2, config), config)
        assert engine.admission is None
        assert "admission" not in engine.stats()

    def test_quota_sheds_per_source_queries(self, mini_pair):
        config = MinoanERConfig(serving_quota_qps=1.0)
        engine = MatchEngine(ResolutionIndex.build(mini_pair.kb2, config), config)
        engine.admission._clock = FakeClock()  # freeze the drip
        probe = list(mini_pair.kb1)[0]
        for _ in range(2):  # the burst: twice the rate
            engine.match(probe, source="tenant-a")
        with pytest.raises(LoadShedError) as caught:
            engine.match(probe, source="tenant-a")
        assert caught.value.reason == "quota"
        engine.match(probe, source="tenant-b")  # separate bucket
        stats = engine.stats()["admission"]
        assert stats["shed"]["quota"] == 1
        assert stats["admitted"] == 3

    def test_max_pending_bounds_batch_cost(self, mini_pair):
        config = MinoanERConfig(serving_max_pending=2)
        engine = MatchEngine(ResolutionIndex.build(mini_pair.kb2, config), config)
        batch = list(mini_pair.kb1)[:3]
        with pytest.raises(LoadShedError) as caught:
            engine.match_batch(batch)
        assert caught.value.reason == "queue"
        assert engine.match_batch(batch[:2]) is not None
        # Pending cost is released after each admitted batch: memory is
        # bounded by max_pending, not by arrival count.
        for _ in range(5):
            engine.match_batch(batch[:2])
        assert engine.admission.pending == 0

    def test_shed_happens_before_any_matching_work(self, mini_pair):
        config = MinoanERConfig(serving_max_pending=1)
        engine = MatchEngine(ResolutionIndex.build(mini_pair.kb2, config), config)
        queries_before = engine.stats()["queries"]
        with pytest.raises(LoadShedError):
            engine.match_batch(list(mini_pair.kb1)[:5])
        assert engine.stats()["queries"] == queries_before


# ----------------------------------------------------------------------
# CLI: shed records on the wire
# ----------------------------------------------------------------------
class TestServeSheds:
    def test_quota_shed_emits_explicit_records(
        self, mini_pair, index_path, tmp_path, capsys
    ):
        queries = write_queries(tmp_path, mini_pair, count=3, source="tenant-a")
        rc = main(
            [
                "serve", str(index_path), "-i", str(queries),
                "--quota-qps", "0.000001",
            ]
        )
        assert rc == 0
        records, _ = stdout_records(capsys)
        answered = [r for r in records if "error" not in r]
        shed = [r for r in records if r.get("shed")]
        assert len(records) == 3
        assert len(shed) == 2  # a burst of max(1, 2 * qps) admits exactly one
        for record in shed:
            assert record["reason"] == "quota"
            assert "tenant-a" in record["error"]
            assert record["query"]
            assert record["line"]
        assert len(answered) == 1

    def test_unlabelled_traffic_is_not_quota_limited_by_default(
        self, mini_pair, index_path, tmp_path, capsys
    ):
        # Quotas without source labels charge the shared default bucket:
        # still bounded, still explicit.
        queries = write_queries(tmp_path, mini_pair, count=3)
        rc = main(
            [
                "serve", str(index_path), "-i", str(queries),
                "--quota-qps", "1",  # a burst of two; the third query is shed
            ]
        )
        assert rc == 0
        records, _ = stdout_records(capsys)
        shed = [r for r in records if r.get("shed")]
        assert len(shed) == 1
        assert shed[0]["reason"] == "quota"


# ----------------------------------------------------------------------
# CLI: ledger failure handling (satellite: no tracebacks, exit nonzero)
# ----------------------------------------------------------------------
class TestServeLedgerErrors:
    def _ledger(self, tmp_path, mini_pair):
        ledger = UpsertLedger(tmp_path / "ops.jsonl")
        sample = list(mini_pair.kb2)[0]
        ledger.append_upsert(
            EntityDescription("http://kb2/new", tuple(sample.pairs))
        )
        ledger.append_delete(sample.uri)
        return ledger

    def test_corrupt_ledger_exits_nonzero_with_one_record(
        self, mini_pair, index_path, tmp_path, capsys
    ):
        ledger = self._ledger(tmp_path, mini_pair)
        lines = ledger.path.read_text(encoding="utf-8").splitlines()
        lines[0] = "@@@ corrupt @@@"
        ledger.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        queries = write_queries(tmp_path, mini_pair)
        rc = main(
            ["serve", str(index_path), "-i", str(queries), "--ledger", str(ledger.path)]
        )
        assert rc == 1
        records, err = stdout_records(capsys)
        assert len(records) == 1  # one structured record, no decisions
        assert records[0]["ledger"] == str(ledger.path)
        assert "line 1" in records[0]["error"]
        assert "Traceback" not in err

    def test_torn_tail_recovers_by_default(
        self, mini_pair, index_path, tmp_path, capsys
    ):
        ledger = self._ledger(tmp_path, mini_pair)
        blob = ledger.path.read_bytes()
        ledger.path.write_bytes(blob[:-4])
        queries = write_queries(tmp_path, mini_pair)
        rc = main(
            ["serve", str(index_path), "-i", str(queries), "--ledger", str(ledger.path)]
        )
        assert rc == 0
        records, err = stdout_records(capsys)
        assert "torn tail" in err
        assert len([r for r in records if "error" not in r]) == 3

    def test_no_recover_makes_torn_tail_fatal(
        self, mini_pair, index_path, tmp_path, capsys
    ):
        ledger = self._ledger(tmp_path, mini_pair)
        blob = ledger.path.read_bytes()
        ledger.path.write_bytes(blob[:-4])
        queries = write_queries(tmp_path, mini_pair)
        rc = main(
            [
                "serve", str(index_path), "-i", str(queries),
                "--ledger", str(ledger.path), "--no-ledger-recover",
            ]
        )
        assert rc == 1
        records, _ = stdout_records(capsys)
        assert len(records) == 1
        assert "torn tail" in records[0]["error"]

    def test_unreadable_ledger_path_exits_nonzero(
        self, mini_pair, index_path, tmp_path, capsys
    ):
        # A directory where a file should be: OSError, same contract.
        bad = tmp_path / "ledger-as-dir"
        bad.mkdir()
        queries = write_queries(tmp_path, mini_pair)
        rc = main(
            ["serve", str(index_path), "-i", str(queries), "--ledger", str(bad)]
        )
        assert rc == 1
        records, _ = stdout_records(capsys)
        assert len(records) == 1
        assert records[0]["ledger"] == str(bad)
