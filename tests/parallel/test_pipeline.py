"""Tests for the stage-parallel pipeline: identical output to serial."""

import pytest

from repro.core.config import MinoanERConfig
from repro.core.pipeline import MinoanER
from repro.datasets.profiles import load_profile, scaled_profile
from repro.parallel.context import ParallelContext
from repro.parallel.pipeline import ParallelMinoanER


def assert_same_resolution(parallel, serial, label=""):
    """The oracle of the parallel pipeline is the *serial* one: the same
    graph bit for bit, hence the same matches, rules and float scores."""
    assert parallel.graph.identical(serial.graph), label
    assert parallel.matches == serial.matches, label
    assert parallel.matching.rule_of == serial.matching.rule_of, label
    assert parallel.matching.scores == serial.matching.scores, label
    # Both sweep the same R3 scope, so even the pre-R4 proposals agree.
    assert parallel.matching.proposed == serial.matching.proposed, label


ORACLE_SCALES = {
    "restaurant": 1.0,
    "rexa_dblp": 0.15,
    "bbc_dbpedia": 0.25,
    "yago_imdb": 0.15,
}


@pytest.fixture(scope="module", params=list(ORACLE_SCALES))
def oracle_pair(request):
    return scaled_profile(request.param, ORACLE_SCALES[request.param])


class TestSerialOracle:
    """A partition owns a node range and runs the serial kernels, so no
    float is re-associated: the graph equals ``MinoanER``'s at every
    partition count, with fixed and with dynamic pruning."""

    @pytest.mark.parametrize("dynamic_pruning", [False, True], ids=["topk", "dynamic"])
    def test_graph_and_matching_identical_to_serial(self, oracle_pair, dynamic_pruning):
        config = MinoanERConfig(dynamic_pruning=dynamic_pruning)
        serial = MinoanER(config).resolve(oracle_pair.kb1, oracle_pair.kb2)
        for workers in (1, 2, 5):
            with ParallelContext(num_workers=workers) as context:
                parallel = ParallelMinoanER(config, context).resolve(
                    oracle_pair.kb1, oracle_pair.kb2
                )
            assert_same_resolution(parallel, serial, f"{workers} workers")

    def test_process_backend_identical(self):
        pair = scaled_profile("rexa_dblp", ORACLE_SCALES["rexa_dblp"])
        config = MinoanERConfig(dynamic_pruning=True)
        serial = MinoanER(config).resolve(pair.kb1, pair.kb2)
        with ParallelContext(num_workers=2, backend="process") as context:
            parallel = ParallelMinoanER(config, context).resolve(pair.kb1, pair.kb2)
        assert_same_resolution(parallel, serial)

    def test_stock_bbc_dbpedia_keeps_the_tied_match(self):
        """Block-partitioned sums differed from serial in the last ulp on
        1,557 candidate lists of this pair, which flipped a tie and
        dropped one match (1268 for serial's 1269)."""
        pair = load_profile("bbc_dbpedia")
        serial = MinoanER().resolve(pair.kb1, pair.kb2)
        with ParallelContext(num_workers=2) as context:
            parallel = ParallelMinoanER(context=context).resolve(pair.kb1, pair.kb2)
        assert len(parallel.matches) == len(serial.matches) == 1269
        assert_same_resolution(parallel, serial)


class TestEquivalence:
    @pytest.mark.parametrize("backend,workers", [("serial", 1), ("thread", 3)])
    def test_matches_identical_to_serial(self, mini_pair, backend, workers):
        serial = MinoanER().resolve(mini_pair.kb1, mini_pair.kb2)
        with ParallelContext(num_workers=workers, backend=backend) as context:
            parallel = ParallelMinoanER(context=context).resolve(
                mini_pair.kb1, mini_pair.kb2
            )
        assert parallel.matches == serial.matches
        assert parallel.matching.rule_of == serial.matching.rule_of

    def test_process_backend_identical(self, mini_pair):
        serial = MinoanER().resolve(mini_pair.kb1, mini_pair.kb2)
        with ParallelContext(num_workers=2, backend="process") as context:
            parallel = ParallelMinoanER(context=context).resolve(
                mini_pair.kb1, mini_pair.kb2
            )
        assert parallel.matches == serial.matches

    def test_identical_on_hard_pair(self, hard_pair):
        config = MinoanERConfig(theta=0.5)
        serial = MinoanER(config).resolve(hard_pair.kb1, hard_pair.kb2)
        with ParallelContext(num_workers=4, backend="thread") as context:
            parallel = ParallelMinoanER(config, context).resolve(
                hard_pair.kb1, hard_pair.kb2
            )
        assert parallel.matches == serial.matches

    def test_ablations_identical(self, mini_pair):
        for overrides in (
            {"use_reciprocity": False},
            {"use_neighbor_evidence": False},
            {"use_name_rule": False},
            {"use_value_rule": False, "use_rank_aggregation": False},
        ):
            config = MinoanERConfig(**overrides)
            serial = MinoanER(config).resolve(mini_pair.kb1, mini_pair.kb2)
            with ParallelContext(num_workers=3, backend="serial") as context:
                parallel = ParallelMinoanER(config, context).resolve(
                    mini_pair.kb1, mini_pair.kb2
                )
            assert parallel.matches == serial.matches, overrides


class TestDegradedGraph:
    def test_skipped_partition_empties_only_its_node_range(self, mini_pair):
        """A partition owns a node range, so skipping it leaves that
        range without candidates of the stage's evidence kind and every
        other row exactly as the serial graph has it."""
        from repro.parallel.context import split_into_partitions
        from repro.resilience import parse_chaos, use_faults

        serial = MinoanER().resolve(mini_pair.kb1, mini_pair.kb2)
        with ParallelContext(num_workers=2, failure_mode="degrade") as context:
            with use_faults(parse_chaos("stage:graph:gamma=error*1")):
                degraded = ParallelMinoanER(context=context).resolve(
                    mini_pair.kb1, mini_pair.kb2
                )
        assert degraded.degraded == {"graph:gamma": (0,)}
        # Partition 0 owns the first of side 1's ranges.
        first = split_into_partitions(
            range(len(mini_pair.kb1)), context.default_partitions()
        )[0]
        side, lo, hi = 1, first[0], first[-1] + 1
        assert any(serial.graph.neighbor_candidates(side, eid) for eid in range(lo, hi))
        for range_side, size in ((1, serial.graph.n1), (2, serial.graph.n2)):
            for eid in range(size):
                assert degraded.graph.value_candidates(
                    range_side, eid
                ) == serial.graph.value_candidates(range_side, eid)
                expected = (
                    ()
                    if range_side == side and lo <= eid < hi
                    else serial.graph.neighbor_candidates(range_side, eid)
                )
                assert degraded.graph.neighbor_candidates(range_side, eid) == expected


class TestStageStructure:
    def test_figure4_stages_present(self, mini_pair):
        with ParallelContext(num_workers=2) as context:
            ParallelMinoanER(context=context).resolve(mini_pair.kb1, mini_pair.kb2)
        names = {record.name for record in context.stage_log}
        assert "graph:beta" in names
        assert "graph:gamma" in names
        assert "match:R2" in names
        assert "match:R3_side1" in names
        assert "match:R3_side2" in names

    def test_timings_cover_phases(self, mini_pair):
        with ParallelContext(num_workers=2) as context:
            result = ParallelMinoanER(context=context).resolve(
                mini_pair.kb1, mini_pair.kb2
            )
        assert set(result.timings) == {
            "statistics",
            "blocking",
            "graph",
            "matching",
            "total",
        }


class TestTracing:
    def test_every_stage_becomes_a_span(self, mini_pair):
        from repro.obs import Recorder, use_recorder

        recorder = Recorder()
        with use_recorder(recorder):
            with ParallelContext(num_workers=2, backend="thread") as context:
                ParallelMinoanER(context=context).resolve(
                    mini_pair.kb1, mini_pair.kb2
                )
        names = recorder.span_names()
        # Every logged stage has a "stage:<name>" span with one child
        # span per partition.
        for record in context.stage_log:
            assert f"stage:{record.name}" in names
            stage = next(
                s for s in recorder.spans() if s.name == f"stage:{record.name}"
            )
            children = [
                s for s in recorder.spans() if s.parent_id == stage.span_id
            ]
            assert len(children) == record.partitions
        # Phase spans wrap the stages.
        for phase in ("resolve", "statistics", "blocking", "graph", "matching"):
            assert phase in names

    def test_matches_identical_with_tracing_enabled(self, mini_pair):
        from repro.obs import Recorder, use_recorder

        serial = MinoanER().resolve(mini_pair.kb1, mini_pair.kb2)
        with use_recorder(Recorder()):
            with ParallelContext(num_workers=3, backend="thread") as context:
                parallel = ParallelMinoanER(context=context).resolve(
                    mini_pair.kb1, mini_pair.kb2
                )
        assert parallel.matches == serial.matches
