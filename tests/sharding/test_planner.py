"""ShardPlanner invariants: partitioning, shard files, round-trips."""

import hashlib

import pytest

from repro.core.config import MinoanERConfig
from repro.serving import ResolutionIndex
from repro.sharding import ShardPlanner, partition_of, shard_paths


@pytest.fixture
def index(mini_pair):
    return ResolutionIndex.build(mini_pair.kb2, MinoanERConfig())


class TestPartitioning:
    def test_partition_is_stable_and_in_range(self, index):
        for count in (1, 2, 3, 7):
            owners = [partition_of(uri, count) for uri in index.uris2]
            assert owners == [partition_of(uri, count) for uri in index.uris2]
            assert all(0 <= owner < count for owner in owners)

    def test_every_shard_nonempty_at_small_counts(self, index):
        owners = ShardPlanner(3).owners(index)
        assert set(owners) == {0, 1, 2}

    def test_shard_paths_naming(self, tmp_path):
        paths = shard_paths(tmp_path / "kb2.idx", 3)
        assert [path.name for path in paths] == [
            "kb2.idx.shard0-of-3",
            "kb2.idx.shard1-of-3",
            "kb2.idx.shard2-of-3",
        ]

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            ShardPlanner(0)


class TestPlan:
    def test_postings_partition_disjointly_and_cover(self, index):
        shards = ShardPlanner(3).plan(index)
        for token, ids in index.postings.items():
            pieces = [list(shard.postings[token]) for shard in shards]
            merged = sorted(eid for piece in pieces for eid in piece)
            assert merged == sorted(ids)

    def test_full_token_table_on_every_shard(self, index):
        # Unowned tokens keep an *empty* posting list: membership (which
        # gates block formation) must stay global on every shard.
        for shard in ShardPlanner(4).plan(index):
            assert set(shard.postings) == set(index.postings)

    def test_global_ef_and_weights_preserved(self, index):
        for shard in ShardPlanner(3).plan(index):
            for token, ids in index.postings.items():
                assert shard.global_entity_frequency(token) == len(ids)
            assert dict(shard.singleton_weights) == dict(index.singleton_weights)

    def test_names_are_owned_singletons_only(self, index):
        shards = ShardPlanner(3).plan(index)
        owners = ShardPlanner(3).owners(index)
        seen = {}
        for position, shard in enumerate(shards):
            for name, ids in shard.names.items():
                assert len(ids) == 1
                assert owners[ids[0]] == position
                assert name not in seen
                seen[name] = position
        singletons = {n for n, ids in index.names.items() if len(ids) == 1}
        assert set(seen) == singletons

    def test_global_id_space_and_metadata(self, index):
        for shard in ShardPlanner(2).plan(index):
            assert shard.n2 == index.n2
            assert list(shard.uris2) == list(index.uris2)
            assert shard.config == index.config

    def test_shard_info_descriptor(self, index):
        shards = ShardPlanner(3).plan(index)
        for position, shard in enumerate(shards):
            assert shard.shard_info == {
                "count": 3,
                "index": position,
                "partition": "crc32",
            }
            assert shard.describe()["shard"] == f"{position}/3"

    def test_refuses_to_reshard_a_shard(self, index):
        shard = ShardPlanner(2).plan(index)[0]
        with pytest.raises(ValueError, match="re-shard"):
            ShardPlanner(3).plan(shard)


class TestPersistence:
    def test_shard_files_roundtrip_byte_identically(self, index, tmp_path):
        paths = ShardPlanner(3).write(index, tmp_path / "kb2.idx")
        for path in paths:
            loaded = ResolutionIndex.load(path)
            assert loaded.shard_info is not None
            assert loaded.token_global_ef is not None
            resaved = tmp_path / f"{path.name}.resave"
            loaded.save(resaved)
            assert (
                hashlib.sha256(path.read_bytes()).digest()
                == hashlib.sha256(resaved.read_bytes()).digest()
            )

    def test_mmap_loads_shard_file(self, index, tmp_path):
        planner = ShardPlanner(2)
        paths = planner.write(index, tmp_path / "kb2.idx")
        mapped = ResolutionIndex.load(paths[0])
        planned = planner.plan(index)[0]
        assert mapped.shard_info == planned.shard_info
        for token, ids in planned.postings.items():
            assert list(mapped.postings[token]) == list(ids)
            assert mapped.global_entity_frequency(token) == planned.global_entity_frequency(token)

    def test_unsharded_save_has_no_shard_sections(self, index, tmp_path):
        # Byte-identity of non-shard files: the optional section and
        # header key only appear when the fields are present.
        path = tmp_path / "plain.idx"
        index.save(path)
        loaded = ResolutionIndex.load(path)
        assert loaded.shard_info is None
        assert loaded.token_global_ef is None

    def test_failed_write_changes_no_shard_file(self, index, mini_pair, tmp_path, monkeypatch):
        # An I/O error on the second temp file leaves every shard file
        # with its old bytes and no temp file behind.
        base = tmp_path / "kb2.idx"
        paths = ShardPlanner(3).write(index, base)
        before = {path: path.read_bytes() for path in paths}
        other = ResolutionIndex.build(mini_pair.kb1, MinoanERConfig())
        write_bytes = type(base).write_bytes
        writes = []

        def failing_write(path, data):
            writes.append(path)
            if len(writes) == 2:
                raise OSError(28, "No space left on device")
            return write_bytes(path, data)

        monkeypatch.setattr(type(base), "write_bytes", failing_write)
        with pytest.raises(OSError, match="No space left"):
            ShardPlanner(3).write(other, base)
        monkeypatch.undo()
        assert {path: path.read_bytes() for path in paths} == before
        assert not list(tmp_path.glob("*.tmp"))
