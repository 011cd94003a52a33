"""The frozen query structure over a target KB: build once, serve many.

Batch MinoanER re-derives everything about KB2 on every run.  For online
serving, :class:`ResolutionIndex` freezes the KB2-side inputs of
Algorithm 1 exactly once:

* the **name-block map** (normalised name -> KB2 entity ids, in the
  order :func:`repro.blocking.name_blocking.name_blocks` would emit
  them) backing ``alpha = 1`` edges and rule R1,
* the **token postings** (token -> ascending KB2 entity ids -- the KB2
  half of every token block) with the per-token Entity Frequency and
  the singleton-query ``1 / log2`` block weight hoisted,
* the **top in-neighbor CSR** that drives ``gamma`` propagation
  (:meth:`repro.kb.statistics.KBStatistics.in_neighbor_csr`),
* the discovered **name attributes** and the pipeline
  :class:`~repro.core.config.MinoanERConfig` (including the tokenizer),
* the id -> URI table for emitting decisions.

Nothing else about KB2 is retained: raw literal values, token sets and
relation pairs are all folded into the structures above, so the index
is the complete and minimal input of query-time resolution.  It
persists via :meth:`save`/:meth:`load` so a serving process can restart
without the source KB.
"""

from __future__ import annotations

import os
from mmap import ACCESS_READ
from mmap import mmap as map_file
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.blocking.name_blocking import normalize_name
from repro.core.config import MinoanERConfig
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.statistics import KBStatistics
from repro.obs import current_recorder
from repro.serving import format as index_format
from repro.serving.format import FORMAT_VERSION, MAGIC

__all__ = ["FORMAT_VERSION", "MAGIC", "ResolutionIndex", "write_files"]


def write_files(contents: Mapping[Path, object]) -> None:
    """Write every file of ``contents`` (path -> bytes) or none of them.

    Each file's bytes go to ``<name>.tmp`` first, and only once every
    temp file is written are they renamed over their paths.  A failed
    write removes the temp files and leaves every path untouched; a
    process mapping an old file keeps reading its pages.
    """
    temps = [(path, Path(f"{path}.tmp"), data) for path, data in contents.items()]
    try:
        for _, tmp, data in temps:
            tmp.write_bytes(data)
        for path, tmp, _ in temps:
            os.replace(tmp, path)
    finally:
        for _, tmp, _ in temps:
            tmp.unlink(missing_ok=True)


class ResolutionIndex:
    """Everything Algorithm 1 needs about the target KB, precomputed.

    An index *is* one columnar container (:mod:`repro.serving.format`):
    the bytes :meth:`build`, :class:`repro.sharding.ShardPlanner` and
    :meth:`repro.serving.live.LiveIndex.compact` encode, or the file
    :meth:`load` maps.  The constructor opens one (producers call it);
    a built, planned, folded and loaded index expose the same views.

    Attributes
    ----------
    data / sections:
        The container (``bytes`` or an ``mmap``) and its raw section
        arrays by name.
    kb_name / n2 / uris2:
        Label, entity count and id -> URI table of the indexed KB.
    config / tokenizer:
        The pipeline configuration baked into the index.  Queries must
        be tokenised with this tokenizer for the postings to apply.
    name_attributes:
        The KB's global top-k name attributes (for reporting).
    names:
        Normalised name -> tuple of KB2 entity ids using it.
    postings:
        Token -> ascending KB2 entity ids (the KB2 side of the token
        block keyed by that token): a zero-copy int32 view of the
        ``posting_ids`` section.
    singleton_weights:
        Token -> ``1 / log2(EF2(t) + 1)``: the block weight of the
        token's query-time block when the query side holds one entity
        (``|b1| = 1``), hoisted so the single-query hot path performs
        no logarithms.
    in_neighbors:
        :class:`~repro.kernels.interning.CSRAdjacency` of the KB's top
        in-neighbors (``gamma`` propagation input).
    token_global_ef / shard_info:
        Present only on per-shard indexes cut by
        :class:`repro.sharding.ShardPlanner`: the *global* Entity
        Frequency per token (postings hold only local entities, but
        weights and purging must see the whole KB) and the
        ``{"count", "index", "partition"}`` shard descriptor.  ``None``
        on ordinary indexes.
    """

    def __init__(self, data):
        self.data = data
        vars(self).update(index_format.open_sections(data))
        #: ``{"format_version", "file_bytes"}`` after :meth:`load`, else None.
        self.load_info: dict[str, int] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, kb2: KnowledgeBase, config: MinoanERConfig | None = None
    ) -> "ResolutionIndex":
        """Profile ``kb2`` once and freeze every query-time structure.

        Runs the same statistics pass as the batch pipeline
        (:meth:`repro.core.pipeline.MinoanER.build_statistics`), so an
        engine over the index reproduces the batch pipeline's view of
        the KB exactly.  The build is traced as an ``index.build`` span
        with ``statistics``/``names``/``postings`` children on the
        ambient :func:`repro.obs.current_recorder`.
        """
        config = config or MinoanERConfig()
        recorder = current_recorder()
        n2 = len(kb2)
        with recorder.span("index.build", n2=n2):
            with recorder.span("index.statistics"):
                stats2 = KBStatistics(
                    kb2,
                    top_k_name_attributes=config.name_attributes_k,
                    top_n_relations=config.relations_n,
                )

            # Name map, in the exact emit order of name_blocks: ids
            # appended ascending, per-entity duplicates collapsed.
            with recorder.span("index.names"):
                names: dict[str, list[int]] = {}
                for eid in range(n2):
                    seen: set[str] = set()
                    for raw in stats2.names(eid):
                        name = normalize_name(raw)
                        if name and name not in seen:
                            seen.add(name)
                            names.setdefault(name, []).append(eid)
                sorted_names = sorted(names)

            with recorder.span("index.postings"):
                token_index = kb2.token_index
                tokens = sorted(token_index)
                postings = index_format.csr_lists([token_index[token] for token in tokens])

            csr = stats2.in_neighbor_csr()
            sections = (
                *index_format.string_table(tokens),
                *postings,
                index_format.token_weights(np.diff(postings[0])),
                *index_format.string_table(sorted_names),
                *index_format.csr_lists([names[name] for name in sorted_names]),
                *index_format.string_table([kb2.uri_of(eid) for eid in range(n2)]),
                csr.offsets,
                csr.ids,
            )
            data = index_format.encode_index(
                dict(zip(index_format.SECTIONS, sections)), kb_name=kb2.name, n2=n2,
                name_attributes=stats2.name_attributes, config=config, tokenizer=kb2.tokenizer,
            )
        return cls(data)

    def derive(self, arrays, **changes) -> "ResolutionIndex":
        """A new index over the section ``arrays`` with this index's
        metadata, ``changes`` (``n2``, ``shard_info``) applied."""
        meta = ("kb_name", "n2", "name_attributes", "config", "tokenizer", "shard_info")
        changes = {**{name: getattr(self, name) for name in meta}, **changes}
        return type(self)(index_format.encode_index(arrays, **changes))

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    @property
    def id_space(self) -> int:
        """Size of the dense-id range structures must be dimensioned for.

        On a frozen index this is simply ``n2``.  A live overlay
        (:class:`repro.serving.live.LiveIndex`) reports a larger value:
        base ids plus every delta slot ever allocated, including
        tombstoned ones -- ``n2`` stays the *live* entity count (which
        drives weights and purging) while ``id_space`` drives array and
        graph extents.
        """
        return self.n2

    def entity_frequency(self, token: str) -> int:
        """``EF2(t)``: entities of the indexed KB containing ``token``."""
        return self.postings.frequency(token)

    def global_entity_frequency(self, token: str) -> int:
        """``EF2(t)`` over the *whole* KB, even on a shard.

        On an ordinary index this equals :meth:`entity_frequency`; on a
        per-shard index the local posting holds only the shard's
        entities, so the frozen global count is consulted instead.
        Block weights and purging thresholds derived from this value are
        therefore identical on every shard and on the unsharded index.
        One token-table probe either way; 0 means the KB lacks ``token``.
        """
        if self.token_global_ef is not None:
            return self.token_global_ef.get(token, 0)
        return self.postings.frequency(token)

    def uri_of(self, eid: int) -> str:
        """URI of the indexed entity with dense id ``eid``."""
        return self.uris2[eid]

    def describe(self) -> dict[str, object]:
        """Summary of the frozen structures (for logs and ``stats()``)."""
        summary: dict[str, object] = {
            "kb": self.kb_name,
            "entities": self.n2,
            "tokens": len(self.postings),
            "posting_entries": self.postings.total_entries(),
            "names": len(self.names),
            "name_attributes": list(self.name_attributes),
            "in_neighbor_edges": len(self.in_neighbors.ids),
        }
        if self.shard_info is not None:
            info = self.shard_info
            summary["shard"] = f"{info.get('index')}/{info.get('count')}"
        return summary

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Write the index to ``path`` in the columnar format (version 3).

        The index already is its container, so this writes those bytes:
        a built, planned or folded index and one loaded from its file
        save identically.  Unlike the retired pickle payload, the file
        carries no executable content; see ``docs/serving.md`` for the
        format and threat model.

        The write goes through :func:`write_files`: the bytes go to
        ``<name>.tmp`` and are renamed over ``path``, so every process
        that has the old file mapped -- this index included, when it is
        re-saved to the path it was loaded from -- keeps reading the old
        pages.  A failed write removes the temp file and leaves ``path``
        untouched.
        """
        with current_recorder().span("index.save", file_bytes=len(self.data)):
            write_files({Path(path): self.data})

    @classmethod
    def load(cls, path: str | Path, mmap: bool = True) -> "ResolutionIndex":
        """Open an index written by :meth:`save`.

        The file is memory-mapped and the index serves straight off
        zero-copy views of its sections, so concurrent processes mapping
        the same file share its read-only pages.  Loading validates the
        CSR sections first (:func:`repro.serving.format.check_lists`,
        ~1.4 ms at 100k entities), so a corrupt file is a ``ValueError``.

        ``mmap=False`` reads the bytes into memory instead and opens the
        same views over them; it exists only for callers written against
        the old two-loader signature -- nothing in this package passes it.

        Foreign, future-versioned and version-1 (the retired pickle
        format) files raise ``ValueError`` without touching their
        payload -- nothing on the load path can unpickle.
        """
        recorder = current_recorder()
        with recorder.span("index.load", path=str(path)) as span:
            with open(path, "rb") as handle:
                prefix = handle.read(len(MAGIC) + 1)
                if prefix[: len(MAGIC)] != MAGIC:
                    raise ValueError(f"{path} is not a MinoanER resolution index")
                version = prefix[len(MAGIC)] if len(prefix) > len(MAGIC) else None
                if version != FORMAT_VERSION:
                    raise ValueError(
                        f"unsupported index format version {version!r} in {path} "
                        f"(this build reads version {FORMAT_VERSION}; rebuild "
                        f"older indexes with 'python -m repro index')"
                    )
                if mmap:
                    data = map_file(handle.fileno(), 0, access=ACCESS_READ)
                else:
                    handle.seek(0)
                    data = handle.read()
            index = cls(data)
            load_info = {"format_version": int(version), "file_bytes": len(data)}
            span.attributes.update(load_info)
            recorder.gauge("index.format_version", load_info["format_version"])
            recorder.gauge("index.file_bytes", load_info["file_bytes"])
        index.load_info = load_info
        return index

    def __repr__(self) -> str:
        return (
            f"ResolutionIndex({self.kb_name!r}, {self.n2} entities, "
            f"{len(self.postings)} tokens, {len(self.names)} names)"
        )
