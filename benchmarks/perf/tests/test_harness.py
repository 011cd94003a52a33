"""The perf harness checks itself: names, units, oracles, determinism.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf/tests``.  Every
test runs the harness with ``--quick`` through the same code path the full
run takes.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERF))

import config  # noqa: E402
import fixtures  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402  (puts src/ on sys.path and PYTHONPATH)
import tracing  # noqa: E402

BENCHMARK = json.loads((PERF.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def document(tmp_path_factory) -> dict:
    """One quick run of all four workloads, untraced then traced."""
    out = tmp_path_factory.mktemp("perf") / "quick.json"
    assert run.main(["--quick", "--seed", "11", "--out", str(out)]) == 0
    return json.loads(out.read_text(encoding="utf-8"))


def test_benchmark_json_matches_the_catalogue():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["benchmarks/perf"]
    assert BENCHMARK["command"] == ["python3", "benchmarks/perf/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(config.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in config.GATED]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        tuple(row) for row in config.layer_metrics()
    ]
    assert any(m["name"] == "setup_s" for m in BENCHMARK["end_to_end"])
    assert len(config.END_TO_END) == 15 and len(BENCHMARK["per_layer"]) <= 128
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in BENCHMARK[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)


def test_every_named_metric_is_emitted_with_its_unit(document):
    measured_by = config.layer_workloads()
    for name in config.WORKLOADS:
        record = document["workloads"][name]
        assert record["failed"] == 0, record["failures"]
        assert record["attempted"] >= 1
        assert set(record["e2e"]) == {m.name for m in config.END_TO_END if name in m.workloads}
        for metric, value in {**record["e2e"], **record["per_layer"]}.items():
            assert NAME.fullmatch(metric), metric
            assert math.isfinite(value), (name, metric)
        # Every catalogued probe of this workload is emitted or named as skipped;
        # nothing uncatalogued is emitted.
        skipped = " ".join(record["skipped_probes"])
        for metric, workloads in measured_by.items():
            if name in workloads:
                assert metric in record["per_layer"] or metric in skipped, (name, metric)
        assert set(record["per_layer"]) <= set(measured_by)
        # The driver's result line, in both trace modes.
        for traced, listed in ((False, BENCHMARK["end_to_end"]), (True, BENCHMARK["per_layer"])):
            line = json.loads(run.contract_line([record], traced))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] is True and line["failed"] == 0
            assert {k: v["unit"] for k, v in line["metrics"].items()} == {
                m["name"]: m["unit"] for m in listed
            }
        assert all(json.loads(run.contract_line([record], False))["metrics"][m.name]["value"] > 0
                   for m in config.GATED)
        assert (PERF / "out" / f"trace-{name}.json").exists()


def test_a_layer_the_workload_bypasses_is_not_reported(document):
    layers = {name: document["workloads"][name]["per_layer"] for name in config.WORKLOADS}
    assert "cache.probe_us" not in layers["offline"] and layers["offline"]["matcher.yago_imdb.matches"] > 0
    assert "live.upsert_us" not in layers["serve_frozen"] and layers["serve_live"]["live.upsert_us"] > 0
    assert "merge.single_us" not in layers["serve_frozen"] and layers["serve_sharded"]["merge.single_us"] > 0
    assert layers["serve_live"]["ledger.bytes_per_edit"] > 0
    assert layers["serve_live"]["live.queries_during_compact"] >= 1
    assert layers["serve_sharded"]["router.requests_per_query"] == config.SHARDS


def test_trace_file_rows_nest(document):
    trace = json.loads((PERF / "out" / "trace-serve_frozen.json").read_text(encoding="utf-8"))
    assert trace["columns"] == ["name", "layer", "start_ns", "end_ns", "parent", "op"]
    layers = {layer for _, layer, *_ in tracing.TARGETS}
    spans = trace["spans"]
    for name, layer, start, end, parent, op in spans[:2000]:
        assert end >= start and layer in layers
        if parent >= 0:
            assert spans[parent][2] <= start and end <= spans[parent][3]


def test_a_corrupted_decision_fails_the_run(monkeypatch, capsys):
    """One decision of one pass altered: the repeat oracle must notice."""
    genuine = harness.decision_key
    calls = {"n": 0}

    def corrupted(decision):
        calls["n"] += 1
        key = genuine(decision)
        return ("http://corrupted",) + key[1:] if calls["n"] == 7 else key

    monkeypatch.setattr(harness, "decision_key", corrupted)
    code = run.main(["--quick", "--workload", "serve_frozen", "--trace", "0"])
    assert code == 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] >= 1


@pytest.mark.parametrize("workload", ["serve_frozen", "serve_sharded"])
def test_a_moved_wrap_target_is_skipped_not_fatal(monkeypatch, capsys, workload):
    """A refactor moves ``accumulate_row`` and ``merge_single_evidence``:
    the run still exits 0 and names what it could not measure."""
    moved = {"accumulate_row", "merge_single_evidence"}
    monkeypatch.setattr(tracing, "TARGETS", tuple(
        (span, layer, module, owner, attribute + "_moved" if attribute in moved else attribute)
        for span, layer, module, owner, attribute in tracing.TARGETS
    ))
    assert run.main(["--quick", "--workload", workload, "--trace", "1"]) == 0
    out = capsys.readouterr().out
    line = json.loads(out.strip().splitlines()[-1])
    assert line["correct"] is True
    assert "skipped probe: repro.kernels.numpy_backend.accumulate_row_moved" in out
    lost = "kernels.row_accumulate_us" if workload == "serve_frozen" else "merge.single_us"
    assert f"skipped probe: {lost}" in out
    assert line["metrics"][lost]["value"] == 0.0


def test_same_seed_same_inputs_and_digests(tmp_path, document):
    fixtures.build_corpus(tmp_path / "a", quick=True)
    fixtures.build_corpus(tmp_path / "b", quick=True)
    for name in ("base.idx", "kb1.jsonl", "kb2.jsonl", "base.idx.shard0-of-2", "offline-restaurant.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    a = fixtures.load_serving(tmp_path / "a", config.QUICK, 11, edits=True)
    b = fixtures.load_serving(tmp_path / "b", config.QUICK, 11, edits=True)
    c = fixtures.load_serving(tmp_path / "a", config.QUICK, 12, edits=True)
    assert (a.queries, a.expect, a.edits) == (b.queries, b.expect, b.edits)
    assert a.queries != c.queries and a.edits != c.edits
    # The edit stream keeps the configured mix and never repeats a delete.
    deletes = [value for op, value in a.edits if op == "delete"]
    assert len(deletes) == len(set(deletes))
    assert 0.1 < len(deletes) / len(a.edits) < 0.3
    # The offline seed only reorders: same entities, ground truth follows them.
    one, other = fixtures.load_offline(tmp_path / "a", 11), fixtures.load_offline(tmp_path / "a", 12)
    pair, again = one["restaurant"], other["restaurant"]
    assert [e.uri for e in pair.kb1] != [e.uri for e in again.kb1]
    assert {(pair.kb1[i].uri, pair.kb2[j].uri) for i, j in pair.truth} == {
        (again.kb1[i].uri, again.kb2[j].uri) for i, j in again.truth
    }

    import workloads

    ctx = workloads.Context(
        config.QUICK, True, 11, None, True, False, fixtures.ensure_corpus(True), tmp_path, tmp_path
    )
    again = workloads.serve_frozen(ctx)
    assert again.digests == document["workloads"]["serve_frozen"]["digests"]
    assert again.e2e["f1_min"] == document["workloads"]["serve_frozen"]["e2e"]["f1_min"]


def test_whole_kb1_batch_equals_offline_resolve():
    from repro import MinoanER, MinoanERConfig
    from repro.datasets.profiles import scaled_profile
    from repro.serving import MatchEngine, ResolutionIndex

    pair = scaled_profile("yago_imdb", config.QUICK.index_n2 / config.YAGO_BASE_N2, seed=5)
    resolved = MinoanER(MinoanERConfig()).resolve(pair.kb1, pair.kb2)
    engine = MatchEngine(ResolutionIndex.build(pair.kb2, MinoanERConfig()))
    decisions = engine.match_batch(pair.kb1.entities)
    served = {(i, d.kb2_id) for i, d in enumerate(decisions) if d.kb2_id is not None}
    assert served == set(resolved.matches)


def test_a_time_budget_cuts_passes_not_sizes(tmp_path):
    import workloads

    def frozen(seconds):
        ctx = workloads.Context(
            config.QUICK, True, 11, seconds, True, False, fixtures.ensure_corpus(True), tmp_path, tmp_path
        )
        return workloads.serve_frozen(ctx)

    spent, roomy = frozen(0.0), frozen(60.0)
    assert spent.samples["query_p50_ms"] == config.MIN_TIMED_PASSES
    assert roomy.samples["query_p50_ms"] == min(config.QUICK_PASSES, config.BUDGET_PASSES)
    assert spent.samples["calls_per_pass"] == roomy.samples["calls_per_pass"] == config.QUICK.frozen_queries
    assert spent.digests == roomy.digests


def test_diff_verdicts(tmp_path, document, capsys):
    before = tmp_path / "a.json"
    after = tmp_path / "b.json"
    steady = json.loads(json.dumps(document))
    value = steady["workloads"]["serve_frozen"]["e2e"]["query_p50_ms"]
    steady["workloads"]["serve_frozen"]["passes"]["query_p50_ms"] = [value] * 3
    before.write_text(json.dumps(steady), encoding="utf-8")
    worse = json.loads(json.dumps(steady))
    record = worse["workloads"]["serve_frozen"]
    record["e2e"]["query_p50_ms"] = 2 * value
    record["passes"]["query_p50_ms"] = [2 * value] * 3
    after.write_text(json.dumps(worse), encoding="utf-8")
    assert run.main(["diff", str(before), str(before)]) == 0
    assert run.main(["diff", str(before), str(after)]) == 1
    rows = [r for r in capsys.readouterr().out.splitlines() if "query_p50_ms" in r and "serve_frozen" in r]
    assert rows[-1].split()[5] == "regressed" and "2.000x" in rows[-1]
    assert run.main(["diff", str(after), str(before)]) == 0  # an improvement is not a failure
    noisy = json.loads(json.dumps(worse))
    noisy["workloads"]["serve_frozen"]["passes"]["query_p50_ms"] = [value, 2 * value, 4 * value]
    after.write_text(json.dumps(noisy), encoding="utf-8")
    assert run.main(["diff", str(before), str(after)]) == 0  # spread over the bound: unresolved
    assert "unresolved" in capsys.readouterr().out
    worse["workloads"]["offline"]["e2e"]["failed_share"] = 0.5
    after.write_text(json.dumps(worse), encoding="utf-8")
    assert run.main(["diff", str(before), str(after)]) == 1
