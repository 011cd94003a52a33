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

The planner never materialises a posting list: it cuts each shard's
sections from the parent's arrays.  An owner mask over ``posting_ids``
keeps a shard's ids, the running count of kept ids at the parent's
``posting_offsets`` gives its offsets, and the singleton-name rows are
gathered in one pass (:func:`repro.serving.format.take_rows`).

Each shard file is a normal columnar v3 container (see
:mod:`repro.serving.format`): the stock engine loads it and
``repro index --migrate`` rewrites it byte-identically.
"""

from __future__ import annotations

import zlib
from pathlib import Path

import numpy as np

from repro.obs import current_recorder
from repro.serving.format import take_rows
from repro.serving.index import ResolutionIndex, write_files

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

    def owners(self, index: ResolutionIndex):
        """Owning shard of every KB2 entity, by dense id (an ndarray)."""
        count = self.count
        return np.fromiter((partition_of(uri, count) for uri in index.uris2), np.int64, index.n2)

    def plan(self, index: ResolutionIndex) -> list[ResolutionIndex]:
        """The ``count`` shard indexes of ``index``, in shard order."""
        if index.shard_info is not None:
            raise ValueError(
                f"refusing to re-shard a shard "
                f"({index.shard_info.get('index')}/{index.shard_info.get('count')} "
                f"of a {index.shard_info.get('count')}-way split)"
            )
        with current_recorder().span("shard.plan", shards=self.count, n2=index.n2):
            sections = index.sections
            owners = self.owners(index)
            ids, offsets = sections["posting_ids"], sections["posting_offsets"]
            id_owners = owners[ids]
            # Names: globally-singleton only, kept by the owner shard.
            name_id_offsets = sections["name_id_offsets"]
            singletons = np.flatnonzero(np.diff(name_id_offsets) == 1)
            singleton_ids = sections["name_ids"][name_id_offsets[singletons]]
            name_table = np.frombuffer(sections["name_blob"], np.uint8), sections["name_offsets"]
            shards = []
            for shard in range(self.count):
                own, mine = id_owners == shard, owners[singleton_ids] == shard
                blob, name_offsets = take_rows(*name_table, singletons[mine])
                arrays = {
                    **sections,
                    "posting_offsets": np.concatenate(([0], np.cumsum(own)))[offsets],
                    "posting_ids": ids[own],
                    "name_blob": blob.tobytes(),
                    "name_offsets": name_offsets,
                    "name_id_offsets": np.arange(len(name_offsets)),
                    "name_ids": singleton_ids[mine],
                    "token_global_ef": np.diff(offsets),
                }
                info = {"count": self.count, "index": shard, "partition": PARTITION_SCHEME}
                shards.append(index.derive(arrays, shard_info=info))
            return shards

    def files(self, index: ResolutionIndex, base: str | Path) -> dict[Path, object]:
        """Shard file path -> bytes of every shard of ``index``."""
        return {
            path: shard.data
            for path, shard in zip(shard_paths(base, self.count), self.plan(index))
        }

    def write(self, index: ResolutionIndex, base: str | Path) -> list[Path]:
        """Plan + save: the shard files of ``index`` next to ``base``,
        all written or none (:func:`repro.serving.index.write_files`)."""
        files = self.files(index, base)
        write_files(files)
        return list(files)
