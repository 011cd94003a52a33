"""Cut one :class:`ResolutionIndex` into N per-shard indexes.

Partitioning is by KB2 entity: entity ``e`` belongs to shard
``crc32(uri(e)) % N`` -- stable across runs, machines and python
versions, and independent of dense id assignment.  A shard keeps:

* the **full token table** with only its own entities in each posting
  list (tokens owned entirely by other shards keep an *empty* list, so
  token membership -- which gates block formation -- stays global);
* the **global Entity Frequency** per token (``token_global_ef``
  section) and the unchanged **global singleton weights**, so block
  weights and purging thresholds computed on a shard equal the
  unsharded ones bit for bit;
* the full ``n2``/URI table (ids stay global; a shard's answers need
  no translation), config, tokenizer, name attributes and in-neighbor
  CSR;
* only the globally-*singleton* names whose single entity it owns --
  a shard-local name map must never claim a name that is ambiguous
  globally.

Because posting lists partition disjointly and every weight input is
global, each candidate's ``beta`` score is computed wholly inside its
owner shard and equals the unsharded score exactly; the router's merge
(:mod:`repro.serving.merge`) then only has to re-rank under the same
``(-score, id)`` order.

Each shard file is a normal columnar v2 container (see
:mod:`repro.serving.format`): the stock engine loads it and
``repro index --migrate`` rewrites it byte-identically.
"""

from __future__ import annotations

import zlib
from array import array
from pathlib import Path

from repro.obs import current_recorder
from repro.serving.index import ResolutionIndex

__all__ = ["ShardPlanner", "partition_of", "shard_paths"]

PARTITION_SCHEME = "crc32"
"""Identifier of the URI hash recorded in each shard's descriptor."""


def partition_of(uri: str, count: int) -> int:
    """The shard owning the entity with this URI (``crc32 % count``)."""
    return zlib.crc32(uri.encode("utf-8")) % count


def shard_paths(base: str | Path, count: int) -> list[Path]:
    """The per-shard file names derived from an index path.

    ``kb2.idx`` with 3 shards becomes ``kb2.idx.shard0-of-3`` ...
    ``kb2.idx.shard2-of-3`` next to the original file.
    """
    base = Path(base)
    return [
        base.with_name(f"{base.name}.shard{i}-of-{count}") for i in range(count)
    ]


class ShardPlanner:
    """Split a built (or loaded) index into ``count`` shard indexes."""

    def __init__(self, count: int):
        if count < 1:
            raise ValueError(f"shard count must be >= 1, got {count}")
        self.count = count

    def owners(self, index: ResolutionIndex) -> list[int]:
        """Owning shard of every KB2 entity, by dense id."""
        count = self.count
        return [partition_of(uri, count) for uri in index.uris2]

    def plan(self, index: ResolutionIndex) -> list[ResolutionIndex]:
        """The ``count`` shard indexes of ``index``, in shard order."""
        if index.shard_info is not None:
            raise ValueError(
                f"refusing to re-shard a shard "
                f"({index.shard_info.get('index')}/{index.shard_info.get('count')} "
                f"of a {index.shard_info.get('count')}-way split)"
            )
        recorder = current_recorder()
        with recorder.span("shard.plan", shards=self.count, n2=index.n2):
            owners = self.owners(index)
            postings = index.postings
            global_ef = {token: len(postings[token]) for token in postings}
            local_postings: list[dict[str, array]] = [
                {} for _ in range(self.count)
            ]
            for token in postings:
                split: list[array] = [array("i") for _ in range(self.count)]
                for eid in postings[token]:
                    split[owners[eid]].append(eid)
                for shard, ids in enumerate(split):
                    local_postings[shard][token] = ids

            # Names: globally-singleton only, kept by the owner shard.
            local_names: list[dict[str, tuple[int, ...]]] = [
                {} for _ in range(self.count)
            ]
            for name, ids in index.names.items():
                if len(ids) == 1:
                    local_names[owners[ids[0]]][name] = tuple(ids)

            weights = dict(index.singleton_weights)
            shards = []
            for shard in range(self.count):
                shards.append(
                    ResolutionIndex(
                        kb_name=index.kb_name,
                        n2=index.n2,
                        uris2=list(index.uris2),
                        config=index.config,
                        tokenizer=index.tokenizer,
                        name_attributes=index.name_attributes,
                        names=local_names[shard],
                        postings=local_postings[shard],
                        singleton_weights=weights,
                        in_neighbors=index.in_neighbors,
                        token_global_ef=global_ef,
                        shard_info={
                            "count": self.count,
                            "index": shard,
                            "partition": PARTITION_SCHEME,
                        },
                    )
                )
            return shards

    def write(self, index: ResolutionIndex, base: str | Path) -> list[Path]:
        """Plan + save: the shard files of ``index`` next to ``base``."""
        paths = shard_paths(base, self.count)
        for shard, path in zip(self.plan(index), paths):
            shard.save(path)
        return paths
