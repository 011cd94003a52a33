"""ResolutionIndex: frozen contents, persistence, format guards."""

import pickle

import numpy as np
import pytest

from repro.blocking.name_blocking import name_blocks, normalize_name
from repro.core.config import MinoanERConfig
from repro.kb.statistics import KBStatistics
from repro.kernels import block_weight
from repro.serving.format import DERIVED
from repro.serving.index import FORMAT_VERSION, MAGIC, ResolutionIndex


class TestBuild:
    def test_basic_shape(self, restaurant_kbs):
        _, kb2 = restaurant_kbs
        index = ResolutionIndex.build(kb2)
        assert index.kb_name == "dbpedia"
        assert index.n2 == len(kb2)
        assert list(index.uris2) == [kb2.uri_of(eid) for eid in range(len(kb2))]
        assert index.tokenizer.min_length == kb2.tokenizer.min_length
        assert index.tokenizer.stopwords == kb2.tokenizer.stopwords

    def test_postings_mirror_token_index(self, restaurant_kbs):
        _, kb2 = restaurant_kbs
        index = ResolutionIndex.build(kb2)
        assert set(index.postings) == set(kb2.token_index)
        for token, ids in kb2.token_index.items():
            assert list(index.postings[token]) == ids
            assert isinstance(index.postings[token], np.ndarray)
            assert index.postings[token].dtype == np.int32
            assert index.entity_frequency(token) == len(ids)
        assert index.entity_frequency("never-a-token") == 0

    def test_singleton_weights_hoisted(self, restaurant_kbs):
        _, kb2 = restaurant_kbs
        index = ResolutionIndex.build(kb2)
        for token, ids in index.postings.items():
            # A single-entity query side makes |b1|*|b2| = EF2(t).
            assert index.singleton_weights[token] == block_weight(len(ids))

    def test_names_match_name_block_semantics(self, restaurant_kbs):
        _, kb2 = restaurant_kbs
        config = MinoanERConfig()
        index = ResolutionIndex.build(kb2, config)
        stats2 = KBStatistics(
            kb2,
            top_k_name_attributes=config.name_attributes_k,
            top_n_relations=config.relations_n,
        )
        expected: dict[str, list[int]] = {}
        for eid in range(len(kb2)):
            seen = set()
            for raw in stats2.names(eid):
                name = normalize_name(raw)
                if name and name not in seen:
                    seen.add(name)
                    expected.setdefault(name, []).append(eid)
        assert index.names == {n: tuple(ids) for n, ids in expected.items()}

    def test_name_map_consistent_with_name_blocks(self, mini_pair):
        config = MinoanERConfig()
        index = ResolutionIndex.build(mini_pair.kb2, config)
        stats1 = KBStatistics(
            mini_pair.kb1,
            top_k_name_attributes=config.name_attributes_k,
            top_n_relations=config.relations_n,
        )
        stats2 = KBStatistics(
            mini_pair.kb2,
            top_k_name_attributes=config.name_attributes_k,
            top_n_relations=config.relations_n,
        )
        for block in name_blocks(stats1, stats2):
            assert index.names[block.key] == block.side2

    def test_in_neighbors_frozen(self, mini_pair):
        config = MinoanERConfig()
        index = ResolutionIndex.build(mini_pair.kb2, config)
        stats2 = KBStatistics(
            mini_pair.kb2,
            top_k_name_attributes=config.name_attributes_k,
            top_n_relations=config.relations_n,
        )
        expected = stats2.in_neighbor_csr()
        assert index.in_neighbors.offsets.tolist() == expected.offsets.tolist()
        assert index.in_neighbors.ids.tolist() == expected.ids.tolist()

    def test_describe_and_repr(self, restaurant_kbs):
        _, kb2 = restaurant_kbs
        index = ResolutionIndex.build(kb2)
        summary = index.describe()
        assert summary["entities"] == len(kb2)
        assert summary["tokens"] == len(index.postings)
        assert summary["names"] == len(index.names)
        assert "dbpedia" in repr(index)
        assert str(len(kb2)) in repr(index)


class TestPersistence:
    def test_save_load_roundtrip(self, mini_pair, tmp_path):
        config = MinoanERConfig(candidates_k=7)
        index = ResolutionIndex.build(mini_pair.kb2, config)
        path = tmp_path / "kb2.idx"
        index.save(path)
        loaded = ResolutionIndex.load(path)
        assert loaded.kb_name == index.kb_name
        assert loaded.n2 == index.n2
        assert list(loaded.uris2) == list(index.uris2)
        assert loaded.config == index.config
        assert dict(loaded.names) == index.names
        assert set(loaded.postings) == set(index.postings)
        for token in index.postings:
            assert loaded.postings[token].tolist() == index.postings[token].tolist()
        assert dict(loaded.singleton_weights) == index.singleton_weights
        assert loaded.in_neighbors.offsets.tolist() == index.in_neighbors.offsets.tolist()
        assert loaded.in_neighbors.ids.tolist() == index.in_neighbors.ids.tolist()

    def test_magic_header_written(self, restaurant_kbs, tmp_path):
        _, kb2 = restaurant_kbs
        path = tmp_path / "kb2.idx"
        ResolutionIndex.build(kb2).save(path)
        raw = path.read_bytes()
        assert raw.startswith(MAGIC)
        assert raw[len(MAGIC)] == FORMAT_VERSION

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "not-an-index"
        path.write_bytes(pickle.dumps({"surprise": True}))
        with pytest.raises(ValueError, match="not a MinoanER resolution index"):
            ResolutionIndex.load(path)

    def test_future_version_rejected(self, restaurant_kbs, tmp_path):
        _, kb2 = restaurant_kbs
        path = tmp_path / "kb2.idx"
        ResolutionIndex.build(kb2).save(path)
        raw = bytearray(path.read_bytes())
        raw[len(MAGIC)] = FORMAT_VERSION + 1
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="unsupported index format version"):
            ResolutionIndex.load(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "kb2.idx"
        path.write_bytes(MAGIC)  # magic but no version byte
        with pytest.raises(ValueError, match="unsupported index format version"):
            ResolutionIndex.load(path)


class TestOneForm:
    def test_built_planned_folded_and_loaded_share_field_types(self, mini_pair, tmp_path):
        from repro.kb.entity import EntityDescription
        from repro.serving.live import LiveIndex
        from repro.sharding import ShardPlanner

        built = ResolutionIndex.build(mini_pair.kb2)
        planned = ShardPlanner(2).plan(built)[0]
        live = LiveIndex(built)
        live.delete(built.uris2[0])
        live.upsert(EntityDescription("http://kb2/new", [("name", "a fresh name")]))
        folded = live.compact()
        built.save(tmp_path / "kb2.idx")
        loaded = ResolutionIndex.load(tmp_path / "kb2.idx")

        def types(index):
            token = next(iter(index.postings))
            fields = {name: type(value) for name, value in vars(index).items()}
            fields.pop("token_global_ef"), fields.pop("shard_info"), fields.pop("load_info")
            fields.pop("data")  # bytes when encoded here, an mmap when loaded
            fields["posting"] = type(index.postings[token]), index.postings[token].dtype
            fields["csr"] = type(index.in_neighbors.ids), index.in_neighbors.ids.dtype
            # Shards alone carry the global EFs, full indexes alone the
            # derived sections (tested in test_format.TestDerivedSections).
            one_kind_only = ("token_global_ef", *DERIVED)
            fields["sections"] = {
                k: type(v) for k, v in index.sections.items() if k not in one_kind_only
            }
            return fields

        assert types(built) == types(planned) == types(folded) == types(loaded)
        assert types(built)["posting"] == (np.ndarray, np.dtype("int32"))
