"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.kb.rdf import save_ntriples


@pytest.fixture
def dataset_dir(tmp_path, mini_pair):
    save_ntriples(mini_pair.kb1, tmp_path / "kb1.nt")
    save_ntriples(mini_pair.kb2, tmp_path / "kb2.nt")
    with (tmp_path / "gt.tsv").open("w", encoding="utf-8") as handle:
        for uri1, uri2 in sorted(mini_pair.uri_ground_truth):
            handle.write(f"{uri1}\t{uri2}\n")
    return tmp_path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_resolve_defaults(self):
        args = build_parser().parse_args(["resolve", "a.nt", "b.nt"])
        assert args.theta == 0.6
        assert args.candidates == 15

    def test_experiment_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table99"])


class TestResolveCommand:
    def test_resolve_writes_matches(self, dataset_dir, capsys):
        out = dataset_dir / "matches.tsv"
        code = main(
            [
                "resolve",
                str(dataset_dir / "kb1.nt"),
                str(dataset_dir / "kb2.nt"),
                "-o",
                str(out),
                "--ground-truth",
                str(dataset_dir / "gt.tsv"),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) > 10
        assert all("\t" in line for line in lines)
        stderr = capsys.readouterr().err
        assert "quality" in stderr

    def test_resolve_to_stdout(self, dataset_dir, capsys):
        main(["resolve", str(dataset_dir / "kb1.nt"), str(dataset_dir / "kb2.nt")])
        stdout = capsys.readouterr().out
        assert "kb1:" in stdout

    def test_config_flags_forwarded(self, dataset_dir, capsys):
        code = main(
            [
                "resolve",
                str(dataset_dir / "kb1.nt"),
                str(dataset_dir / "kb2.nt"),
                "--theta",
                "0.5",
                "--no-neighbors",
            ]
        )
        assert code == 0


class TestTraceFlag:
    def test_resolve_trace_covers_phases(self, dataset_dir, capsys):
        trace = dataset_dir / "trace.json"
        code = main(
            [
                "resolve",
                str(dataset_dir / "kb1.nt"),
                str(dataset_dir / "kb2.nt"),
                "--trace",
                str(trace),
            ]
        )
        assert code == 0
        payload = json.loads(trace.read_text())
        names = {span["name"] for span in payload["spans"]}
        assert {"resolve", "statistics", "blocking", "graph", "matching"} <= names
        assert any(
            key.startswith("kernels.dispatch.") for key in payload["counters"]
        )
        assert "# trace written to" in capsys.readouterr().err

    def test_resolve_trace_logfmt(self, dataset_dir, capsys):
        trace = dataset_dir / "trace.logfmt"
        code = main(
            [
                "resolve",
                str(dataset_dir / "kb1.nt"),
                str(dataset_dir / "kb2.nt"),
                "--trace",
                str(trace),
                "--trace-format",
                "logfmt",
            ]
        )
        assert code == 0
        lines = trace.read_text().strip().splitlines()
        assert any(line.startswith("span name=resolve") for line in lines)

    def test_index_and_serve_trace(self, dataset_dir, capsys):
        index_path = dataset_dir / "kb2.idx"
        index_trace = dataset_dir / "index-trace.json"
        assert main(
            [
                "index",
                str(dataset_dir / "kb2.nt"),
                "-o",
                str(index_path),
                "--trace",
                str(index_trace),
            ]
        ) == 0
        capsys.readouterr()
        names = {s["name"] for s in json.loads(index_trace.read_text())["spans"]}
        assert {"index.build", "index.statistics", "index.save"} <= names

        requests = dataset_dir / "queries.jsonl"
        requests.write_text('{"pairs": [["name", "anything"]]}\n', encoding="utf-8")
        serve_trace = dataset_dir / "serve-trace.json"
        assert main(
            [
                "serve",
                str(index_path),
                "-i",
                str(requests),
                "--trace",
                str(serve_trace),
            ]
        ) == 0
        capsys.readouterr()
        payload = json.loads(serve_trace.read_text())
        assert "index.load" in {s["name"] for s in payload["spans"]}
        assert payload["counters"]["serving.queries"] == 1
        assert "serving.latency_ms" in payload["histograms"]
        assert "serving.candidates" in payload["histograms"]


@pytest.fixture
def index_path(dataset_dir, capsys):
    path = dataset_dir / "kb2.idx"
    assert main(["index", str(dataset_dir / "kb2.nt"), "-o", str(path)]) == 0
    capsys.readouterr()
    return path


class TestFlagRanges:
    @pytest.mark.parametrize(
        "command,flag,value",
        [
            ("serve", "--batch-size", "0"),
            ("serve", "--shards", "-1"),
            ("serve", "--replicas", "0"),
            ("serve", "--auto-compact-delta", "0"),
            ("serve", "--auto-compact-tombstones", "1.5"),
            ("serve", "--cache-size", "-1"),
            ("serve", "--deadline-ms", "0"),
            ("serve", "--max-pending", "0"),
            ("serve", "--provenance", "2"),
            ("resolve", "--theta", "1.5"),
            ("resolve", "--candidates", "0"),
            ("resolve", "--retry-attempts", "0"),
            ("resolve", "--workers", "0"),
        ],
    )
    def test_out_of_range_value_is_a_usage_error(
        self, dataset_dir, index_path, capsys, command, flag, value
    ):
        if command == "serve":
            argv = ["serve", str(index_path)]
        else:
            argv = ["resolve", str(dataset_dir / "kb1.nt"), str(dataset_dir / "kb2.nt")]
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1


class TestIndexFlagCombinations:
    """``repro index`` flags one mode would drop without a word are a
    usage error before anything is written."""

    @pytest.mark.parametrize(
        "source,flags",
        [
            ("index", ["--migrate", "--shards", "2"]),
            ("index", ["--migrate", "--compact"]),
            ("kb", ["--ledger", "edits.jsonl"]),
        ],
        ids=["migrate with shards", "migrate with compact", "ledger without compact"],
    )
    def test_dropped_flag_is_a_usage_error(
        self, dataset_dir, index_path, capsys, source, flags
    ):
        before = sorted(dataset_dir.iterdir())
        content = index_path.read_bytes()
        kb = index_path if source == "index" else dataset_dir / "kb2.nt"
        target = dataset_dir / "out.idx"
        with pytest.raises(SystemExit) as exit_info:
            main(["index", str(kb), "-o", str(target), *flags])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        assert sorted(dataset_dir.iterdir()) == before
        assert index_path.read_bytes() == content


class TestUnreadableIndex:
    @pytest.mark.parametrize("damage", ["missing", "foreign", "truncated", "bad ids"])
    @pytest.mark.parametrize(
        "argv", [["serve"], ["index", "--compact"], ["index", "--migrate"]], ids=" ".join
    )
    def test_one_error_line_and_exit_2(self, index_path, capsys, argv, damage):
        raw = index_path.read_bytes()
        broken = index_path.with_name("broken.idx")
        if damage == "foreign":
            broken.write_text("<rdf:RDF/>\n", encoding="utf-8")
        elif damage == "truncated":
            broken.write_bytes(raw[: len(raw) // 2])
        elif damage == "bad ids":
            # The file's last int32 (of the neighbour CSR), far out of range.
            broken.write_bytes(raw[:-4] + (2**31 - 1).to_bytes(4, "little"))
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, str(broken)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = err.splitlines()
        assert line.startswith("repro: error: cannot load index")


class TestAutoCompactFlags:
    @pytest.fixture
    def schedulers(self, monkeypatch):
        import repro.serving.compaction as compaction

        built = []

        class RecordingScheduler:
            def __init__(self, engine, **kwargs):
                built.append(kwargs)

            def start(self):
                return self

            def close(self):
                pass

        monkeypatch.setattr(compaction, "CompactionScheduler", RecordingScheduler)
        return built

    def serve(self, index_path, *flags):
        requests = index_path.with_name("queries.jsonl")
        requests.write_text('{"pairs": [["name", "anything"]]}\n', encoding="utf-8")
        return main(["serve", str(index_path), "-i", str(requests), *flags])

    def test_flags_build_the_scheduler(self, index_path, schedulers, capsys):
        flags = ["--auto-compact-delta", "5", "--auto-compact-tombstones", "0.25"]
        assert self.serve(index_path, *flags) == 0
        assert schedulers == [{"max_delta": 5, "max_tombstone_ratio": 0.25}]

    def test_no_flags_no_scheduler(self, index_path, schedulers, capsys):
        assert self.serve(index_path) == 0
        assert schedulers == []


class TestDedupeCommand:
    def test_dedupe_runs(self, dataset_dir, capsys):
        code = main(["dedupe", str(dataset_dir / "kb2.nt")])
        assert code == 0
        assert "clusters" in capsys.readouterr().err


class TestExperimentCommand:
    def test_experiment_table1_on_stub_profiles(self, mini_pair, monkeypatch, capsys):
        import repro.cli as cli

        monkeypatch.setattr(cli, "load_profile", lambda name: mini_pair)
        code = main(["experiment", "table1", "--profiles", "restaurant"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "mini" in out

    def test_experiment_table4_on_stub_profiles(self, mini_pair, monkeypatch, capsys):
        import repro.cli as cli

        monkeypatch.setattr(cli, "load_profile", lambda name: mini_pair)
        code = main(["experiment", "table4", "--profiles", "restaurant"])
        assert code == 0
        assert "[R1]" in capsys.readouterr().out

    def test_experiment_figure6_on_stub_profiles(self, mini_pair, monkeypatch, capsys):
        import repro.cli as cli

        monkeypatch.setattr(cli, "load_profile", lambda name: mini_pair)
        code = main(["experiment", "figure6", "--profiles", "restaurant"])
        assert code == 0
        assert "speedup" in capsys.readouterr().out


class TestGenerateCommand:
    def test_generate_writes_triple_of_files(self, tmp_path, capsys):
        code = main(
            [
                "generate",
                "restaurant",
                "--scale",
                "0.1",
                "--out-dir",
                str(tmp_path / "data"),
            ]
        )
        assert code == 0
        assert (tmp_path / "data" / "kb1.nt").exists()
        assert (tmp_path / "data" / "kb2.nt").exists()
        assert (tmp_path / "data" / "ground_truth.tsv").exists()

    def test_generated_data_resolves(self, tmp_path, capsys):
        main(["generate", "restaurant", "--scale", "0.1", "--out-dir", str(tmp_path)])
        code = main(
            [
                "resolve",
                str(tmp_path / "kb1.nt"),
                str(tmp_path / "kb2.nt"),
                "--ground-truth",
                str(tmp_path / "ground_truth.tsv"),
            ]
        )
        assert code == 0
