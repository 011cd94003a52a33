"""Robustness of the columnar index format (version 2).

Corruption guards (truncation, foreign magic, future versions), edge
shapes (empty KB2, tokens with zero postings), byte-determinism of the
encoder, the refusal of retired version-1 (pickle) files, and the
zero-copy view classes ``load`` returns.
"""

import json
from array import array

import pytest

from repro.core.config import MinoanERConfig, config_from_dict, config_to_dict
from repro.kb.knowledge_base import KnowledgeBase
from repro.serving import format as index_format
from repro.serving.index import FORMAT_VERSION, MAGIC, ResolutionIndex


@pytest.fixture
def saved_index(restaurant_kbs, tmp_path):
    _, kb2 = restaurant_kbs
    index = ResolutionIndex.build(kb2, MinoanERConfig(candidates_k=7))
    path = tmp_path / "kb2.idx"
    index.save(path)
    return index, path


class TestCorruptionGuards:
    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "foreign.idx"
        path.write_bytes(b"\x93NUMPY" + b"\x00" * 64)
        with pytest.raises(ValueError, match="not a MinoanER resolution index"):
            ResolutionIndex.load(path)

    def test_future_version(self, saved_index):
        _, path = saved_index
        raw = bytearray(path.read_bytes())
        raw[len(MAGIC)] = FORMAT_VERSION + 1
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="unsupported index format version"):
            ResolutionIndex.load(path)

    def test_magic_only(self, tmp_path):
        path = tmp_path / "stub.idx"
        path.write_bytes(MAGIC)
        with pytest.raises(ValueError, match="unsupported index format version"):
            ResolutionIndex.load(path)

    def test_truncated_header(self, saved_index, tmp_path):
        _, path = saved_index
        stub = tmp_path / "cut.idx"
        stub.write_bytes(path.read_bytes()[: len(MAGIC) + 2])
        with pytest.raises(ValueError, match="truncated index file"):
            ResolutionIndex.load(stub)

    def test_truncated_section(self, saved_index, tmp_path):
        _, path = saved_index
        stub = tmp_path / "cut.idx"
        stub.write_bytes(path.read_bytes()[:-64])
        with pytest.raises(ValueError, match="truncated index file"):
            ResolutionIndex.load(stub)

    def test_corrupt_header_json(self, saved_index):
        _, path = saved_index
        raw = bytearray(path.read_bytes())
        # Smash the first byte of the JSON header.
        raw[len(MAGIC) + 5] = 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="corrupt index header"):
            ResolutionIndex.load(path)


    @pytest.mark.parametrize(
        "section,values",
        [
            ("posting_ids", lambda ids, n2: [n2] + ids[1:]),
            ("posting_offsets", lambda offsets, n2: [offsets[0], offsets[2], offsets[1], *offsets[3:]]),
            ("posting_offsets", lambda offsets, n2: offsets[:-1] + [offsets[-1] - 1]),
        ],
        ids=["out-of-range id", "decreasing offsets", "last offset short of the ids"],
    )
    def test_corrupt_posting_lists(self, saved_index, section, values):
        _, path = saved_index
        raw = bytearray(path.read_bytes())
        header, base = index_format.parse_header(raw, len(raw))
        (entry,) = [s for s in header["sections"] if s["name"] == section]
        start, end = base + entry["offset"], base + entry["offset"] + 4 * entry["count"]
        old = array("i", raw[start:end]).tolist()
        new = values(old, header["n2"])
        assert new != old
        raw[start:end] = array("i", new).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="posting_ids"):
            ResolutionIndex.load(path)


class TestEdgeShapes:
    def test_empty_kb2_roundtrip(self, tmp_path):
        index = ResolutionIndex.build(KnowledgeBase([], name="empty"))
        path = tmp_path / "empty.idx"
        index.save(path)
        loaded = ResolutionIndex.load(path)
        assert loaded.n2 == 0
        assert len(loaded.postings) == 0
        assert len(loaded.names) == 0
        assert list(loaded.uris2) == []
        assert len(loaded.in_neighbors) == 0

    def test_zero_posting_token_roundtrip(self, restaurant_kbs, tmp_path):
        from repro.sharding import ShardPlanner

        _, kb2 = restaurant_kbs
        index = ResolutionIndex.build(kb2)
        # A token with no postings cannot arise from build() (block_weight(0)
        # is undefined), but the format must carry it: a shard keeps every
        # token, so tokens owned wholly by other shards are hollow there.
        for shard in ShardPlanner(2).plan(index):
            hollow = [t for t in index.postings if not len(shard.postings[t])]
            if hollow:
                break
        assert hollow
        path = tmp_path / "hollow.idx"
        shard.save(path)
        loaded = ResolutionIndex.load(path)
        for token in hollow:
            assert token in loaded.postings
            assert list(loaded.postings[token]) == []
            assert loaded.singleton_weights[token] == index.singleton_weights[token]
            assert loaded.entity_frequency(token) == 0


class TestByteDeterminism:
    def test_save_load_save_identical(self, saved_index, tmp_path):
        _, path = saved_index
        original = path.read_bytes()
        resaved = tmp_path / "again.idx"
        ResolutionIndex.load(path).save(resaved)
        assert resaved.read_bytes() == original

    def test_mmap_load_save_identical(self, saved_index, tmp_path):
        index, path = saved_index
        original = path.read_bytes()
        resaved = tmp_path / "again.idx"
        index.save(resaved)
        assert resaved.read_bytes() == original
        # In place: the loaded index reads the very file it replaces.
        ResolutionIndex.load(path).save(path)
        assert path.read_bytes() == original

    def test_resave_over_a_mapped_file_keeps_old_views(self, saved_index, mini_pair):
        index, path = saved_index
        loaded = ResolutionIndex.load(path)
        before = {token: loaded.postings[token].tolist() for token in index.postings}
        # A different index renamed over the mapped path: the first
        # handle still reads the pages of the file it opened.
        other = ResolutionIndex.build(mini_pair.kb2)
        other.save(path)
        assert ResolutionIndex.load(path).n2 == other.n2 != index.n2
        assert {t: loaded.postings[t].tolist() for t in index.postings} == before
        assert list(loaded.uris2) == list(index.uris2)
        assert not path.with_name(path.name + ".tmp").exists()

    def test_sections_are_aligned(self, saved_index):
        _, path = saved_index
        data = path.read_bytes()
        header, base = index_format.parse_header(data, len(data))
        assert base % index_format.ALIGNMENT == 0
        for section in header["sections"]:
            assert section["offset"] % index_format.ALIGNMENT == 0

    def test_config_survives_json_roundtrip(self):
        config = MinoanERConfig(candidates_k=9, serving_deadline_ms=2.5)
        assert config_from_dict(config_to_dict(config)) == config
        # Unknown keys from a newer build are ignored, not fatal.
        augmented = dict(config_to_dict(config), future_knob=True)
        assert config_from_dict(augmented) == config
        # So are the knobs an older build wrote into its index headers
        # and shard workers' --config JSON.
        removed = dict(
            tokenizer_min_length=4,
            stopwords=["the", "of"],
            serving_shards=3,
            serving_replicas=2,
            serving_batch_size=8,
            compaction_max_delta=100,
            compaction_max_tombstone_ratio=0.5,
            max_block_comparisons=50,
            retry_budget_ratio=None,
            breaker_reset_s=5.0,
            observability=False,
            kernel_backend="python",
            serving_candidate_cap=7,
            serving_hedge_ms=2.5,
            serving_quota_burst=4.0,
            breaker_threshold=9,
            value_threshold=2.0,
            enforce_unique_mapping=False,
            purging_budget_ratio=0.05,
            pruning_gap_ratio=0.4,
            retry_base_delay_s=0.0,
        )
        parent_era = dict(config_to_dict(config), **removed)
        assert config_from_dict(json.loads(json.dumps(parent_era))) == config


class _Detonator:
    """Unpickling this raises: proof a refused file was never unpickled."""

    def __reduce__(self):
        return (pytest.fail, ("a version-1 index file was unpickled",))


class TestMigration:
    def test_v1_pickle_file_is_refused_without_unpickling(self, tmp_path):
        import pickle

        legacy = tmp_path / "legacy.idx"
        legacy.write_bytes(MAGIC + bytes([1]) + pickle.dumps(_Detonator()))
        with pytest.raises(ValueError) as refusal:
            ResolutionIndex.load(legacy)
        message = str(refusal.value)
        assert "unsupported index format version 1" in message
        assert "\n" not in message

    def test_migrate_cli_rewrites_a_v2_file(self, saved_index, tmp_path):
        from repro.cli import main

        _, path = saved_index
        copy = tmp_path / "copy.idx"
        assert main(["index", "--migrate", str(path), "-o", str(copy)]) == 0
        assert copy.read_bytes() == path.read_bytes()
        assert main(["index", "--migrate", str(copy)]) == 0  # in place
        assert copy.read_bytes() == path.read_bytes()

    def test_index_command_requires_output_without_migrate(self, capsys):
        from repro.cli import main

        assert main(["index", "whatever.nt"]) == 2
        assert "--output is required" in capsys.readouterr().err


class TestLoadInfoAndGauges:
    def test_load_info_and_span(self, saved_index):
        from repro.obs import Recorder, use_recorder

        _, path = saved_index
        recorder = Recorder()
        with use_recorder(recorder):
            loaded = ResolutionIndex.load(path)
        expected = {
            "format_version": FORMAT_VERSION,
            "file_bytes": path.stat().st_size,
        }
        assert loaded.load_info == expected
        span = next(s for s in recorder.spans() if s.name == "index.load")
        for key, value in expected.items():
            assert span.attributes[key] == value

    def test_gauges_reach_prometheus(self, saved_index):
        from repro.obs import Recorder, use_recorder
        from repro.obs.prometheus import render_metrics

        _, path = saved_index
        recorder = Recorder()
        with use_recorder(recorder):
            ResolutionIndex.load(path)
        text = render_metrics(recorder)
        assert f"index_file_bytes {path.stat().st_size}" in text
        assert f"index_format_version {FORMAT_VERSION}" in text
        assert "index_mmap" not in text


class TestMappedViews:
    @pytest.fixture
    def mapped(self, saved_index):
        index, path = saved_index
        return index, ResolutionIndex.load(path)

    def test_postings_view(self, mapped):
        index, loaded = mapped
        assert len(loaded.postings) == len(index.postings)
        assert list(loaded.postings) == sorted(index.postings)
        assert loaded.postings.total_entries() == sum(
            len(ids) for ids in index.postings.values()
        )
        some = sorted(index.postings)[0]
        assert list(loaded.postings[some]) == list(index.postings[some])
        assert loaded.postings.get("never-a-token", ()) == ()
        with pytest.raises(KeyError):
            loaded.postings["never-a-token"]
        assert "never-a-token" not in loaded.postings
        assert 42 not in loaded.postings  # non-str probes never match

    def test_weights_and_names_views(self, mapped):
        index, loaded = mapped
        assert dict(loaded.singleton_weights) == index.singleton_weights
        assert dict(loaded.names) == index.names
        some = next(iter(index.names))
        assert loaded.names[some] == index.names[some]
        assert isinstance(loaded.names[some], tuple)
        with pytest.raises(KeyError):
            loaded.names["￿ never a name"]

    def test_uris_view(self, mapped):
        index, loaded = mapped
        assert len(loaded.uris2) == len(index.uris2)
        assert list(loaded.uris2) == list(index.uris2)
        assert loaded.uris2[-1] == index.uris2[-1]
        assert loaded.uris2[2:4] == index.uris2[2:4]
        with pytest.raises(IndexError):
            loaded.uris2[len(index.uris2)]

    def test_adjacency_view(self, mapped):
        index, loaded = mapped
        assert len(loaded.in_neighbors) == len(index.in_neighbors)
        assert list(loaded.in_neighbors.ids) == list(index.in_neighbors.ids)
        assert loaded.in_neighbors.to_lists() == index.in_neighbors.to_lists()

