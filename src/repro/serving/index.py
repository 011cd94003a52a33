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
from array import array
from mmap import ACCESS_READ
from mmap import mmap as map_file
from pathlib import Path

from repro.blocking.name_blocking import normalize_name
from repro.core.config import MinoanERConfig
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.statistics import KBStatistics
from repro.kb.tokenizer import Tokenizer
from repro.kernels import CSRAdjacency, block_weight
from repro.obs import current_recorder
from repro.serving import format as index_format
from repro.serving.format import FORMAT_VERSION, MAGIC

__all__ = ["FORMAT_VERSION", "MAGIC", "ResolutionIndex"]

_PERSISTED_FIELDS = (
    "kb_name",
    "n2",
    "uris2",
    "config",
    "tokenizer",
    "name_attributes",
    "names",
    "postings",
    "singleton_weights",
    "in_neighbors",
)


class ResolutionIndex:
    """Everything Algorithm 1 needs about the target KB, precomputed.

    Instances are produced by :meth:`build` (from a
    :class:`~repro.kb.knowledge_base.KnowledgeBase`) or :meth:`load`
    (from a file written by :meth:`save`); the constructor wires
    already-frozen fields and is not meant to be called directly.

    Attributes
    ----------
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
        block keyed by that token): ``array('i')`` when built, a
        zero-copy ``repro.serving.format.MappedPostings`` view over the
        file's int32 pages when loaded.
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

    def __init__(
        self,
        kb_name: str,
        n2: int,
        uris2: list[str],
        config: MinoanERConfig,
        tokenizer: Tokenizer,
        name_attributes: tuple[str, ...],
        names: dict[str, tuple[int, ...]],
        postings: dict[str, array],
        singleton_weights: dict[str, float],
        in_neighbors: CSRAdjacency,
        *,
        token_global_ef: dict[str, int] | None = None,
        shard_info: dict[str, object] | None = None,
    ):
        self.kb_name = kb_name
        self.n2 = n2
        self.uris2 = uris2
        self.config = config
        self.tokenizer = tokenizer
        self.name_attributes = name_attributes
        self.names = names
        self.postings = postings
        self.singleton_weights = singleton_weights
        self.in_neighbors = in_neighbors
        self.token_global_ef = token_global_ef
        self.shard_info = shard_info
        #: ``{"format_version", "file_bytes"}`` of the file after
        #: :meth:`load`, None for built indexes.
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
        with recorder.span("index.build", n2=len(kb2)):
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
                for eid in range(len(kb2)):
                    seen: set[str] = set()
                    for raw in stats2.names(eid):
                        name = normalize_name(raw)
                        if name and name not in seen:
                            seen.add(name)
                            names.setdefault(name, []).append(eid)

            with recorder.span("index.postings"):
                postings = {
                    token: array("i", ids) for token, ids in kb2.token_index.items()
                }
                singleton_weights = {
                    token: block_weight(len(ids)) for token, ids in postings.items()
                }

        return cls(
            kb_name=kb2.name,
            n2=len(kb2),
            uris2=[kb2.uri_of(eid) for eid in range(len(kb2))],
            config=config,
            tokenizer=kb2.tokenizer,
            name_attributes=stats2.name_attributes,
            names={name: tuple(ids) for name, ids in names.items()},
            postings=postings,
            singleton_weights=singleton_weights,
            in_neighbors=stats2.in_neighbor_csr(),
        )

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
        return len(self.postings.get(token, ()))

    def global_entity_frequency(self, token: str) -> int:
        """``EF2(t)`` over the *whole* KB, even on a shard.

        On an ordinary index this equals :meth:`entity_frequency`; on a
        per-shard index the local posting holds only the shard's
        entities, so the frozen global count is consulted instead.
        Block weights and purging thresholds derived from this value are
        therefore identical on every shard and on the unsharded index.
        """
        if self.token_global_ef is not None:
            return int(self.token_global_ef.get(token, 0))
        return len(self.postings.get(token, ()))

    def uri_of(self, eid: int) -> str:
        """URI of the indexed entity with dense id ``eid``."""
        return self.uris2[eid]

    def describe(self) -> dict[str, object]:
        """Summary of the frozen structures (for logs and ``stats()``)."""
        postings = self.postings
        if hasattr(postings, "total_entries"):
            # Mapped postings know their CSR length in O(1); iterating
            # every token would decode the whole table.
            entries = postings.total_entries()
        else:
            entries = sum(len(ids) for ids in postings.values())
        summary: dict[str, object] = {
            "kb": self.kb_name,
            "entities": self.n2,
            "tokens": len(self.postings),
            "posting_entries": entries,
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
        """Write the index to ``path`` in the columnar format (version 2).

        The encoding is deterministic (sorted tables, canonical JSON
        header, zero padding), so saving the same logical index -- built
        or loaded -- produces identical bytes.  Unlike the retired pickle
        payload, the file carries no executable content; see
        ``docs/serving.md`` for the format and threat model.

        The bytes go to ``<name>.tmp`` and are renamed over ``path``, so
        every process that has the old file mapped -- this index
        included, when it is re-saved to the path it was loaded from --
        keeps reading the old pages.  A failed write removes the temp
        file and leaves ``path`` untouched.
        """
        fields = {field: getattr(self, field) for field in _PERSISTED_FIELDS}
        if self.token_global_ef is not None:
            fields["token_global_ef"] = self.token_global_ef
        if self.shard_info is not None:
            fields["shard_info"] = self.shard_info
        data = index_format.encode_index(fields)
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        with current_recorder().span("index.save", file_bytes=len(data)):
            try:
                tmp.write_bytes(data)
                os.replace(tmp, path)
            finally:
                tmp.unlink(missing_ok=True)

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
            fields = index_format.open_sections(data)
            load_info = {"format_version": int(version), "file_bytes": len(data)}
            span.attributes.update(load_info)
            recorder.gauge("index.format_version", load_info["format_version"])
            recorder.gauge("index.file_bytes", load_info["file_bytes"])
        index = cls(**fields)
        index.load_info = load_info
        return index

    def __repr__(self) -> str:
        return (
            f"ResolutionIndex({self.kb_name!r}, {self.n2} entities, "
            f"{len(self.postings)} tokens, {len(self.names)} names)"
        )
