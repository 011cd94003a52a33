"""Live index: LSM-style delta segments, tombstones, ledger, zero-drop swaps.

The frozen :class:`~repro.serving.index.ResolutionIndex` answers
queries for a KB that never changes; real Web KBs are re-crawled
continuously.  This module layers mutability on top of the frozen base
without giving up its properties, following the classic LSM split:

* :class:`UpsertLedger` -- an append-only JSONL event log of entity
  upserts and deletes.  The ledger is the durable source of truth; the
  index (base + delta) is a disposable projection rebuilt from base +
  replay at startup.
* :class:`DeltaSegment` -- a small mutable in-memory segment holding
  the upserted entities' postings, name map and descriptions, plus the
  tombstone set of *base* ids shadowed by an upsert or removed by a
  delete.
* :class:`LiveIndex` -- a duck-typed overlay presenting base + delta
  as one index to the unmodified engine: candidate generation unions
  base and delta postings (dead base ids filtered by one gather over a
  byte mask, only for tokens that lost a member; zero-copy for the
  rest), block weights are recomputed from *live* Entity Frequencies
  (base EF minus a per-token dead count kept at kill time, plus the
  delta's), and delta entities occupy dense ids above every base id.
  :meth:`LiveIndex.compact` folds everything into a fresh frozen index
  whose save is byte-deterministic.
* :class:`IndexHandle` -- a reader/writer drain gate plus a monotonic
  generation counter: queries pin the current index state, mutations
  and swaps wait for pinned queries to finish, flip atomically, and
  bump the generation (which keys the LRU cache, so no answer computed
  against an older state is ever served after a change).
* :class:`LiveServingMixin` / :class:`LiveEngine` -- the serving
  behaviours over any :class:`~repro.serving.engine.MatchEngine`
  subclass (``LiveShardRouter`` in :mod:`repro.sharding.router` reuses
  the same mixin over the sharded tier).

Equivalence contract (the invariant every serving PR has held to):
decisions over base + delta are bit-identical to a full rebuild of the
index over the equivalent final KB -- base entities never edited, in
base order, followed by live delta entities in upsert order.  Ids map
monotonically between the two, and every tie-break in the pipeline is
``(-score, id)``, so the mapping preserves decisions.  Exactness is
guaranteed for *relation-neutral* edits (upserted descriptions are
treated as relation-free, and edits must not change the rebuilt KB's
discovered name attributes); see ``docs/live_index.md`` for the
precise scope and why compaction output always equals live serving.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from bisect import bisect_left
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.blocking.name_blocking import normalize_name
from repro.kb.entity import EntityDescription
from repro.kernels import CSRAdjacency, block_weight
from repro.obs import current_recorder
from repro.resilience.faults import inject
from repro.serving.engine import MatchEngine
from repro.serving.format import (
    DERIVED, SECTIONS, URIOrder, check_derived, string_table, take_rows, token_weights,
)
from repro.serving.index import ResolutionIndex, write_files

__all__ = [
    "DeltaSegment",
    "IndexHandle",
    "LedgerError",
    "LiveEngine",
    "LiveIndex",
    "LiveServingMixin",
    "UpsertLedger",
]


#: Postings this short are masked from python, which beats a numpy
#: gather's ~1 us fixed cost (most are: the median EF is 1 at 100k).
_PYTHON_MASK_MAX = 16


class LedgerError(ValueError):
    """A malformed ledger line (carries the 1-based line number)."""


def _entity_to_record(entity: EntityDescription) -> dict[str, Any]:
    return {"uri": entity.uri, "pairs": [list(pair) for pair in entity.pairs]}


def _entity_from_record(payload: Any, line: int) -> EntityDescription:
    if (
        not isinstance(payload, dict)
        or not isinstance(payload.get("uri"), str)
        or not payload["uri"]
        or not isinstance(payload.get("pairs"), list)
    ):
        raise LedgerError(
            f"ledger line {line}: 'entity' needs a non-empty 'uri' and a "
            f"'pairs' list"
        )
    pairs = []
    for item in payload["pairs"]:
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or not all(isinstance(part, str) for part in item)
        ):
            raise LedgerError(
                f"ledger line {line}: each pair must be [attribute, value] "
                f"strings, got {item!r}"
            )
        pairs.append((item[0], item[1]))
    return EntityDescription(payload["uri"], pairs)


def _canonical_record(record: dict[str, Any]) -> bytes:
    """The CRC input: canonical JSON of the record minus its ``crc`` key.

    Canonical (sorted keys, compact separators) so verification is
    independent of on-disk key order -- a hand-edited but intact ledger
    still verifies.
    """
    body = {key: value for key, value in record.items() if key != "crc"}
    return json.dumps(
        body, separators=(",", ":"), sort_keys=True, ensure_ascii=False
    ).encode("utf-8")


def record_crc(record: dict[str, Any]) -> int:
    """CRC32 of a ledger record's canonical form (crc key excluded)."""
    return zlib.crc32(_canonical_record(record)) & 0xFFFFFFFF


class UpsertLedger:
    """Append-only, checksummed JSONL event log of live-index mutations.

    One JSON object per line::

        {"op": "upsert", "entity": {...}, "crc": 2859425017}
        {"op": "delete", "uri": "...", "crc": 1948562170}

    The ledger is the durable record (Engram-style: immutable events,
    disposable projection): a serving process replays it over the
    frozen base at startup to recover the delta segment, and
    compaction folds it into a fresh base and truncates it.  Appends
    flush + fsync on every record so a crashed server loses at most
    the record being written.

    **Integrity.**  Every record carries a CRC32 over its canonical
    JSON form (sorted keys, ``crc`` excluded), verified on replay;
    records written before checksumming existed (no ``crc`` key) are
    accepted and counted in :attr:`unverified`.

    **Crash recovery.**  A crash mid-append leaves a *torn tail*: a
    final record that is truncated, unterminated, or CRC-corrupt, with
    nothing after it.  ``replay(recover=True)`` truncates the tail back
    to the last intact record boundary (fsync'd), appends a checksummed
    ``{"op": "recover", ...}`` marker (skipped by future replays, so
    the repair itself is auditable), records the repair in
    :attr:`recovered`, and counts ``ledger.recoveries``.  The default
    ``recover=False`` stays strict and raises :class:`LedgerError`.
    Corruption *before* the final record can never be a torn append and
    always raises -- recovery never silently drops interior events.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        #: Records appended through this instance (not the file total).
        self.appended = 0
        #: Pre-CRC records accepted by the last :meth:`replay`.
        self.unverified = 0
        #: Details of the last torn-tail repair (``None`` if none ran).
        self.recovered: dict[str, Any] | None = None

    def append_upsert(self, entity: EntityDescription) -> None:
        """Append one upsert event and flush it."""
        self._append({"op": "upsert", "entity": _entity_to_record(entity)})

    def append_delete(self, uri: str) -> None:
        """Append one delete event and flush it."""
        self._append({"op": "delete", "uri": uri})

    def _append(self, record: dict[str, Any]) -> None:
        record = dict(record)
        record["crc"] = record_crc(record)
        data = json.dumps(record, ensure_ascii=False) + "\n"
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            self.appended += 1

    def _parse(self, raw: bytes, number: int) -> tuple[str, Any] | None:
        """One intact line -> event tuple, ``None`` for recovery markers.

        Raises :class:`LedgerError` on any structural or checksum
        problem; the caller decides whether that is fatal (interior
        line) or a recoverable torn tail (final line).
        """
        try:
            record = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise LedgerError(f"ledger line {number}: not JSON ({error})") from None
        if not isinstance(record, dict):
            raise LedgerError(
                f"ledger line {number}: expected an object, got "
                f"{type(record).__name__}"
            )
        crc = record.get("crc")
        if crc is not None:
            if not isinstance(crc, int):
                raise LedgerError(
                    f"ledger line {number}: 'crc' must be an integer, got {crc!r}"
                )
            expected = record_crc(record)
            if crc != expected:
                raise LedgerError(
                    f"ledger line {number}: CRC mismatch "
                    f"(stored {crc}, computed {expected})"
                )
        else:
            self.unverified += 1
        op = record.get("op")
        if op == "upsert":
            return "upsert", _entity_from_record(record.get("entity"), number)
        if op == "delete":
            uri = record.get("uri")
            if not isinstance(uri, str) or not uri:
                raise LedgerError(
                    f"ledger line {number}: 'delete' needs a "
                    f"non-empty string 'uri'"
                )
            return "delete", uri
        if op == "recover":
            return None
        raise LedgerError(
            f"ledger line {number}: unknown op {op!r} "
            f"(expected 'upsert', 'delete' or 'recover')"
        )

    def replay(self, recover: bool = False) -> Iterator[tuple[str, Any]]:
        """Yield ``("upsert", EntityDescription)`` / ``("delete", uri)``
        events in append order; a missing file is an empty ledger.

        With ``recover=True``, a torn tail (see the class docstring) is
        truncated and repaired instead of raising; interior corruption
        raises :class:`LedgerError` in both modes.
        """
        self.unverified = 0
        if not self.path.exists():
            return
        with open(self.path, "rb") as handle:
            good_end = 0
            number = 0
            while True:
                raw = handle.readline()
                if not raw:
                    break
                number += 1
                stripped = raw.strip()
                error: LedgerError | None = None
                event: tuple[str, Any] | None = None
                if not raw.endswith(b"\n"):
                    # Only the final line can lack its newline; treat it
                    # as torn even if its JSON happens to parse -- the
                    # next append would fuse with it and corrupt both.
                    if not stripped:
                        break
                    error = LedgerError(
                        f"ledger line {number}: unterminated record "
                        f"({len(raw)} bytes, no trailing newline)"
                    )
                elif not stripped:
                    good_end = handle.tell()
                    continue
                else:
                    try:
                        event = self._parse(stripped, number)
                    except LedgerError as parse_error:
                        error = parse_error
                if error is not None:
                    if handle.read().strip():
                        # Bad line with content after it: interior
                        # corruption, never a torn append.
                        raise error
                    if not recover:
                        raise LedgerError(
                            f"{error} -- torn tail; replay(recover=True) "
                            f"truncates it"
                        ) from None
                    self._truncate_tail(good_end, number, str(error))
                    return
                good_end = handle.tell()
                if event is not None:
                    yield event

    def _truncate_tail(self, good_end: int, number: int, reason: str) -> None:
        """Drop the torn final record and leave an fsync'd audit marker."""
        size = self.path.stat().st_size
        with self._lock:
            with open(self.path, "r+b") as handle:
                handle.truncate(good_end)
                handle.flush()
                os.fsync(handle.fileno())
        self.recovered = {
            "line": number,
            "dropped_bytes": size - good_end,
            "reason": reason,
        }
        self._append({"op": "recover", **self.recovered})
        current_recorder().count("ledger.recoveries")

    def clear(self) -> None:
        """Truncate the ledger (called after its events were compacted
        into a fresh base)."""
        with self._lock:
            with open(self.path, "w", encoding="utf-8") as handle:
                handle.flush()
                os.fsync(handle.fileno())

    def __repr__(self) -> str:
        return f"UpsertLedger({str(self.path)!r}, appended={self.appended})"


class DeltaSegment:
    """The mutable in-memory segment of a :class:`LiveIndex`.

    Slots are allocated densely and never reused: every upsert gets a
    fresh slot (its global id is ``base_n2 + slot``), and the slot an
    entity previously occupied is tombstoned -- so an entity's position
    in the equivalent rebuilt KB is its *last* upsert, and slot order
    is exactly rebuild order.  ``dead_base`` holds base ids shadowed by
    an upsert of the same URI or removed by a delete; base ids are
    never resurrected (a re-upsert after a delete lands in the delta).
    """

    def __init__(self) -> None:
        #: Slot -> description; ``None`` marks a tombstoned slot.
        self.entities: list[EntityDescription | None] = []
        #: Slot -> URI (kept through tombstoning for diagnostics).
        self.uris: list[str] = []
        #: Live URI -> its current slot.
        self.uri_slot: dict[str, int] = {}
        #: Token -> ascending live slots containing it.
        self.postings: dict[str, list[int]] = {}
        #: Normalised name -> ascending live slots carrying it.
        self.names: dict[str, list[int]] = {}
        #: Slot -> its token set / name tuple (for tombstone removal).
        self.token_sets: list[frozenset[str]] = []
        self.name_sets: list[tuple[str, ...]] = []
        #: Base ids shadowed or deleted.
        self.dead_base: set[int] = set()
        #: Live (non-tombstoned) slot count.
        self.live_count = 0

    @property
    def allocated(self) -> int:
        """Slots ever allocated, tombstoned ones included."""
        return len(self.entities)

    def live_slots(self) -> list[int]:
        """Ascending live slots -- rebuild order of the delta entities."""
        return [slot for slot, entity in enumerate(self.entities) if entity is not None]

    def add(
        self,
        entity: EntityDescription,
        tokens: frozenset[str],
        names: tuple[str, ...],
    ) -> int:
        """Append ``entity`` into a fresh slot and return it."""
        slot = len(self.entities)
        self.entities.append(entity)
        self.uris.append(entity.uri)
        self.token_sets.append(tokens)
        self.name_sets.append(names)
        for token in tokens:
            self.postings.setdefault(token, []).append(slot)
        for name in names:
            self.names.setdefault(name, []).append(slot)
        self.uri_slot[entity.uri] = slot
        self.live_count += 1
        return slot

    def remove_slot(self, slot: int) -> None:
        """Tombstone one live slot, unlinking its postings and names."""
        for token in self.token_sets[slot]:
            group = self.postings[token]
            group.remove(slot)
            if not group:
                del self.postings[token]
        for name in self.name_sets[slot]:
            group = self.names[name]
            group.remove(slot)
            if not group:
                del self.names[name]
        self.uri_slot.pop(self.uris[slot], None)
        self.entities[slot] = None
        self.live_count -= 1

    def __repr__(self) -> str:
        return (
            f"DeltaSegment(live={self.live_count}, allocated={self.allocated}, "
            f"dead_base={len(self.dead_base)})"
        )


class _LivePostings:
    """Token -> live posting ids, unioning base (dead-filtered) and delta.

    Unaffected tokens return the raw base sequence -- a zero-copy
    slice of the mapped base -- so the frozen-index hot path pays
    nothing.  ``len()`` is a documented *upper bound* (tokens whose
    every base entity died still count); no serving math consumes it.
    """

    __slots__ = ("_live",)

    def __init__(self, live: "LiveIndex"):
        self._live = live

    def __contains__(self, token: object) -> bool:
        return isinstance(token, str) and self._live.entity_frequency(token) > 0

    def __getitem__(self, token: str) -> Sequence[int]:
        ids = self._live._posting(token)
        if ids is None:
            raise KeyError(token)
        return ids

    def get(self, token: str, default: Any = ()) -> Any:
        ids = self._live._posting(token)
        return default if ids is None else ids

    def __len__(self) -> int:
        live = self._live
        base = live.base.postings
        extra = sum(1 for token in live.delta.postings if token not in base)
        return len(base) + extra

    def __iter__(self) -> Iterator[str]:
        live = self._live
        base = live.base.postings
        for token in base:
            yield token
        for token in live.delta.postings:
            if token not in base:
                yield token


class _LiveWeights:
    """Token -> singleton block weight from the *live* Entity Frequency.

    Falls through to the base's hoisted weight when the token's live EF
    equals the frozen one (the overwhelmingly common case)."""

    __slots__ = ("_live",)

    def __init__(self, live: "LiveIndex"):
        self._live = live

    def __getitem__(self, token: str) -> float:
        live = self._live
        base_ef = live.base.postings.frequency(token)
        live_ef = live.entity_frequency(token)
        if live_ef == base_ef and base_ef:
            return live.base.singleton_weights[token]
        if live_ef <= 0:
            raise KeyError(token)
        return block_weight(live_ef)

    def __contains__(self, token: object) -> bool:
        return isinstance(token, str) and self._live.entity_frequency(token) > 0


class _LiveNames:
    """Normalised name -> live global ids (base survivors + delta)."""

    __slots__ = ("_live",)

    def __init__(self, live: "LiveIndex"):
        self._live = live

    def _group(self, name: str) -> tuple[int, ...] | None:
        live = self._live
        dead = live._dead
        base_ids = live.base.names.get(name, ())
        ids = [eid for eid in base_ids if not dead[eid]]
        base_n2 = live.base.n2
        ids.extend(base_n2 + slot for slot in live.delta.names.get(name, ()))
        return tuple(ids) if ids else None

    def __getitem__(self, name: str) -> tuple[int, ...]:
        group = self._group(name)
        if group is None:
            raise KeyError(name)
        return group

    def get(self, name: str, default: Any = None) -> Any:
        group = self._group(name)
        return default if group is None else group

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self._group(name) is not None

    def __len__(self) -> int:
        live = self._live
        base = live.base.names
        extra = sum(1 for name in live.delta.names if name not in base)
        return len(base) + extra


class _LiveURIs:
    """Global id -> URI over base then delta slots (tombstones keep
    their last URI -- live code never asks for a dead id's URI, but
    diagnostics may)."""

    __slots__ = ("_live",)

    def __init__(self, live: "LiveIndex"):
        self._live = live

    def __getitem__(self, eid: int) -> str:
        live = self._live
        base_n2 = live.base.n2
        if 0 <= eid < base_n2:
            return live.base.uris2[eid]
        return live.delta.uris[eid - base_n2]

    def __len__(self) -> int:
        return self._live.id_space

    def __iter__(self) -> Iterator[str]:
        for eid in range(len(self)):
            yield self[eid]


def _fold_table(blob, offsets, id_offsets, ids, added: dict[str, Any]):
    """Merge ``added`` into a sorted string table with per-row ids.

    ``(blob, offsets)`` is the table and ``(id_offsets, ids)`` its rows'
    ids; ``added`` maps a key to ids greater than every id in ``ids``.
    An added key already in the table has its ids appended to its row,
    a new key takes its sorted place, and rows left empty go.  Only the
    added keys are looked at one by one (a binary search each); the
    table is cut by gathers.  Returns the merged ``(blob, offsets,
    id_offsets, ids)``.
    """
    raw, bounds = bytes(blob), np.asarray(offsets).tolist()
    rows = len(bounds) - 1
    keys = sorted(added)
    place, found = np.zeros(len(keys), np.int64), np.zeros(len(keys), bool)

    def key_of(row):
        return raw[bounds[row] : bounds[row + 1]]

    for i, key in enumerate(keys):
        code = key.encode("utf-8")
        at = place[i] = bisect_left(range(rows), code, key=key_of)
        found[i] = at < rows and key_of(at) == code
    # Pieces: the table's non-empty (or found) rows, then the added keys.
    # A found key's piece sorts right after its table row and joins it;
    # a new key's sorts ahead of the table row at its place.
    # Distinct ints by sort + neighbour mask: numpy 2's union1d / unique
    # without ``return_*`` hash, ~40x slower over a 100k-row table.
    table_rows = np.sort(np.concatenate((np.flatnonzero(np.diff(id_offsets)), place[found])))
    distinct = np.ones(len(table_rows), bool)
    np.not_equal(table_rows[1:], table_rows[:-1], out=distinct[1:])
    table_rows = table_rows[distinct]
    order = np.argsort(np.concatenate((2 * table_rows + 1, 2 * place + found)), kind="stable")
    pieces = np.concatenate((table_rows, rows + np.arange(len(keys))))[order]
    starts = np.concatenate((np.ones(len(table_rows), bool), ~found))[order]
    sizes = np.cumsum([len(added[key]) for key in keys], dtype=np.int64)
    all_ids = np.concatenate((ids, *(added[key] for key in keys)))
    all_offsets = np.concatenate((id_offsets, id_offsets[-1] + sizes))
    ids, piece_offsets = take_rows(all_ids, all_offsets, pieces)
    added_blob, added_bounds = string_table(keys)
    blob, offsets = take_rows(
        np.frombuffer(raw + added_blob, np.uint8),
        np.concatenate((bounds, len(raw) + added_bounds[1:])),
        pieces[starts],
    )
    id_offsets = piece_offsets[np.append(np.flatnonzero(starts), len(pieces))]
    return blob.tobytes(), offsets, id_offsets, ids


class LiveIndex:
    """Frozen base + mutable delta presented as one engine-ready index.

    Duck-types the :class:`~repro.serving.index.ResolutionIndex`
    surface the engine consumes (``n2``/``id_space``/``postings``/
    ``singleton_weights``/``names``/``uris2``/``in_neighbors``/
    ``entity_frequency``/...), so :class:`MatchEngine` and the shard
    router run over it unmodified.  ``n2`` is the *live* entity count
    (drives weights and purging, matching a rebuild); ``id_space`` is
    ``base n2 + allocated delta slots`` (drives array and graph
    extents; tombstoned columns stay empty and are harmless).

    Dead base ids are also one byte each in ``_dead`` (read as a
    zero-copy bool array), and each base token counts its dead members
    in ``_dead_tokens``, written when an id dies: a live EF is one table
    probe, and only a posting that lost a member pays the gather
    ``mask[ids]`` for its survivors.  Edits read the base's derived
    sections (:data:`repro.serving.format.DERIVED`) -- a URI's id by
    binary search, a dead entity's tokens off the postings' transpose
    -- so an edit costs its own tokens, not the base.

    Not thread-safe on its own: callers serialise mutations against
    queries through :class:`IndexHandle` (as :class:`LiveServingMixin`
    does).
    """

    def __init__(self, base: ResolutionIndex):
        if base.shard_info is not None:
            raise ValueError(
                "a LiveIndex overlays the full index, not a shard "
                f"({base.shard_info.get('index')}/{base.shard_info.get('count')})"
            )
        self.base = base
        self.delta = DeltaSegment()
        self._epoch = 0
        self._derived: tuple[URIOrder, memoryview, memoryview] | None = None
        self._dead = bytearray(base.n2)
        self._dead_view = np.frombuffer(self._dead, dtype=np.bool_)
        self._dead_tokens = memoryview(np.zeros(len(base.postings), np.int32))
        self._csr: tuple[int, CSRAdjacency] | None = None
        self.postings = _LivePostings(self)
        self.singleton_weights = _LiveWeights(self)
        self.names = _LiveNames(self)
        self.uris2 = _LiveURIs(self)

    # ------------------------------------------------------------------
    # Frozen-surface passthroughs
    # ------------------------------------------------------------------
    @property
    def kb_name(self) -> str:
        return self.base.kb_name

    @property
    def config(self):
        return self.base.config

    @property
    def tokenizer(self):
        return self.base.tokenizer

    @property
    def name_attributes(self) -> tuple[str, ...]:
        return self.base.name_attributes

    @property
    def load_info(self):
        return self.base.load_info

    @property
    def shard_info(self):
        return None

    @property
    def token_global_ef(self):
        return None

    # ------------------------------------------------------------------
    # Live geometry
    # ------------------------------------------------------------------
    @property
    def n2(self) -> int:
        """Live entity count (weights/purging input -- equals a rebuild's)."""
        return self.base.n2 - len(self.delta.dead_base) + self.delta.live_count

    @property
    def id_space(self) -> int:
        """Dense-id extent: every base id plus every allocated slot."""
        return self.base.n2 + self.delta.allocated

    @property
    def delta_active(self) -> bool:
        """True when any edit distinguishes live state from the base."""
        return bool(self.delta.live_count or self.delta.dead_base)

    @property
    def tombstone_count(self) -> int:
        """Dead base ids plus tombstoned delta slots."""
        return len(self.delta.dead_base) + (
            self.delta.allocated - self.delta.live_count
        )

    @property
    def epoch(self) -> int:
        """Mutation counter (keys the in-neighbor CSR memo)."""
        return self._epoch

    def _bump(self) -> None:
        self._epoch += 1

    def _derived_sections(self) -> tuple[URIOrder, memoryview, memoryview]:
        """The base's ``uri_order`` as a :class:`URIOrder` lookup and its
        ``(entity_token_offsets, entity_tokens)`` as memoryviews (plain
        ints, no numpy scalars), validated on first use: a frozen load
        never reads them, so the first edit does."""
        if self._derived is None:
            sections = self.base.sections
            check_derived(sections, self.base.n2)
            order, offsets, tokens = (sections[name] for name in DERIVED)
            uris = URIOrder(sections["uri_blob"], sections["uri_offsets"], order)
            self._derived = uris, memoryview(offsets), memoryview(tokens)
        return self._derived

    def _kill(self, base_id: int) -> None:
        """Mark one base id dead (shadowed by an upsert, or deleted) and
        count it once against each of its tokens."""
        if self._dead[base_id]:
            return
        _, offsets, tokens = self._derived_sections()
        dead_tokens = self._dead_tokens
        for token in tokens[offsets[base_id] : offsets[base_id + 1]]:
            dead_tokens[token] += 1
        self.delta.dead_base.add(base_id)
        self._dead[base_id] = 1

    # ------------------------------------------------------------------
    # Posting / EF overlay
    # ------------------------------------------------------------------
    def _survivors(self, ids: Sequence[int]) -> Sequence[int]:
        """``ids`` (a base posting) without its dead ids -- the posting
        object itself when none died, so the zero-copy slice survives."""
        if len(ids) <= _PYTHON_MASK_MAX:
            dead = self._dead
            kept = [eid for eid in ids.tolist() if not dead[eid]]
            return kept if len(kept) < len(ids) else ids
        array_ids = np.asarray(ids)
        died = self._dead_view[array_ids]
        return array_ids[~died] if died.any() else ids

    def _posting(self, token: str) -> Sequence[int] | None:
        """The live posting of ``token`` (ascending global ids), or
        ``None`` when its live EF is zero: the base survivors, then the
        delta slots' global ids -- the base's own sequence (a zero-copy
        slice of the mapped file) when no edit touched the token.

        An affected token's posting is a fresh int32 array."""
        postings = self.base.postings
        row, length = postings.locate(token)
        ids = base_ids = postings.row(row) if length else ()
        if length and self._dead_tokens[row]:
            ids = self._survivors(base_ids)
        slots = self.delta.postings.get(token)
        if slots or ids is not base_ids:
            delta_ids = np.array(slots or (), np.int32) + self.base.n2
            ids = np.concatenate((np.asarray(ids, np.int32), delta_ids))
        return ids if len(ids) else None

    def entity_frequency(self, token: str) -> int:
        """Live ``EF2(t)``: base EF minus dead members plus delta members.

        One table probe; the dead members were counted at kill time."""
        row, frequency = self.base.postings.locate(token)
        if frequency:
            frequency -= self._dead_tokens[row]
        slots = self.delta.postings.get(token)
        return frequency + len(slots) if slots else frequency

    def global_entity_frequency(self, token: str) -> int:
        """Same as :meth:`entity_frequency` (a live index is never a shard)."""
        return self.entity_frequency(token)

    def uri_of(self, eid: int) -> str:
        return self.uris2[eid]

    # ------------------------------------------------------------------
    # Neighbor overlay
    # ------------------------------------------------------------------
    @property
    def in_neighbors(self) -> CSRAdjacency:
        """The base in-neighbor CSR, extended to ``id_space`` rows with
        dead ids masked (so ``gamma`` never proposes a tombstoned
        entity).  Delta entities contribute no relation structure (the
        relation-neutral scope); their rows are empty.

        Invariant: ``len(in_neighbors) == id_space``, always.  The base
        CSR itself only serves while no slot was ever allocated and no
        base id died -- a tombstoned delta slot still occupies an id
        (``delta_active`` is False then, yet ``id_space > base.n2``).
        Memoised per epoch; one vectorised pass: an entry survives when
        neither its row nor its id is dead, and the new offsets are the
        running survivor count at the old ones."""
        if not self.delta.allocated and not self.delta.dead_base:
            return self.base.in_neighbors
        cached = self._csr
        if cached is not None and cached[0] == self._epoch:
            return cached[1]
        base_csr = self.base.in_neighbors
        pad = self.delta.allocated
        mask = self._dead_view
        offsets = np.asarray(base_csr.offsets)
        ids = np.asarray(base_csr.ids)
        keep = ~(mask[ids] | np.repeat(mask, np.diff(offsets)))
        kept = np.concatenate(([0], np.cumsum(keep)))[offsets]
        csr = CSRAdjacency(
            np.concatenate((kept, np.full(pad, kept[-1]))).astype(np.int32),
            ids[keep].astype(np.int32, copy=False),
        )
        self._csr = (self._epoch, csr)
        return csr

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def _base_id(self, uri: str) -> int | None:
        """The base id of ``uri``, or ``None``: a binary search through
        the base's ``uri_order``."""
        return self._derived_sections()[0].find(uri)

    def _names_of(self, entity: EntityDescription) -> tuple[str, ...]:
        """The entity's normalised names under the base's frozen name
        attributes, in the index build's exact emit order."""
        out: list[str] = []
        seen: set[str] = set()
        for attribute in self.base.name_attributes:
            for raw in entity.values_of(attribute):
                name = normalize_name(raw)
                if name and name not in seen:
                    seen.add(name)
                    out.append(name)
        return tuple(out)

    def upsert(self, entity: EntityDescription) -> int:
        """Insert or replace one entity; returns its new global id.

        Every value is tokenised as a literal (relation-neutral scope);
        a previous delta slot for the URI is tombstoned, a base entity
        with the URI is shadowed via ``dead_base``.
        """
        uri = entity.uri
        if not uri:
            raise ValueError("an upserted entity needs a non-empty URI")
        tokens = self.tokenizer.token_set([value for _, value in entity.pairs])
        names = self._names_of(entity)
        delta = self.delta
        previous = delta.uri_slot.get(uri)
        if previous is not None:
            delta.remove_slot(previous)
        else:
            base_id = self._base_id(uri)
            if base_id is not None:
                self._kill(base_id)
        slot = delta.add(entity, tokens, names)
        self._bump()
        return self.base.n2 + slot

    def delete(self, uri: str) -> bool:
        """Remove one entity by URI; False when it was not live."""
        delta = self.delta
        slot = delta.uri_slot.get(uri)
        if slot is not None:
            delta.remove_slot(slot)
            self._bump()
            return True
        base_id = self._base_id(uri)
        if base_id is not None and not self._dead[base_id]:
            self._kill(base_id)
            self._bump()
            return True
        return False

    def apply(self, op: str, value: Any) -> bool:
        """Apply one replayed ledger event; True if it changed state."""
        if op == "upsert":
            self.upsert(value)
            return True
        if op == "delete":
            return self.delete(value)
        raise ValueError(f"unknown live-index op {op!r}")

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self) -> ResolutionIndex:
        """Fold base + delta into a fresh frozen index.

        Survivor base entities keep their relative order, live delta
        entities follow in slot (= last-upsert) order; ids are densely
        renumbered by that order, which is exactly the equivalent
        rebuilt KB's id assignment -- so for relation-neutral KBs the
        result's :meth:`~ResolutionIndex.save` bytes equal a cold
        ``ResolutionIndex.build`` of the final KB.  In every case the
        compacted index answers queries identically to the live overlay
        it folded (same postings, weights, names and neighbor rows
        under the monotone renumbering).

        The renumbering is one cumsum over the dead mask, applied to the
        base's CSR sections by gathers; only the delta's own tokens and
        names are touched one by one (:func:`_fold_table`).
        """
        base, delta = self.base, self.delta
        sections = base.sections
        keep = ~self._dead_view
        remap = np.cumsum(keep) - 1
        survivors = int(np.count_nonzero(keep))
        live_slots = delta.live_slots()
        slot_ids = np.full(delta.allocated, -1)
        slot_ids[live_slots] = np.arange(survivors, survivors + len(live_slots))

        def fold(table, offsets, ids, added):
            ids = sections[ids]
            alive = keep[ids]
            return _fold_table(
                sections[f"{table}_blob"], sections[f"{table}_offsets"],
                np.concatenate(([0], np.cumsum(alive)))[sections[offsets]], remap[ids[alive]],
                {key: slot_ids[slots] for key, slots in added.items()},
            )

        tokens = fold("token", "posting_offsets", "posting_ids", delta.postings)
        uri_blob = np.frombuffer(sections["uri_blob"], np.uint8)
        uri_blob, uri_offsets = take_rows(uri_blob, sections["uri_offsets"], np.flatnonzero(keep))
        added_blob, added_offsets = string_table([delta.uris[slot] for slot in live_slots])
        # The overlay's neighbor view already dropped dead ids and emptied
        # dead rows: keep the rows of live ids and renumber.
        csr = self.in_neighbors
        rows = np.concatenate((keep, slot_ids >= 0))
        folded = (
            *tokens,
            token_weights(np.diff(tokens[2])),
            *fold("name", "name_id_offsets", "name_ids", delta.names),
            uri_blob.tobytes() + added_blob,
            np.concatenate((uri_offsets, uri_offsets[-1] + added_offsets[1:])),
            np.concatenate(([0], np.asarray(csr.offsets)[1:][rows])),
            remap[np.asarray(csr.ids)],
        )
        return base.derive(dict(zip(SECTIONS, folded)), n2=survivors + len(live_slots))

    def describe(self) -> dict[str, object]:
        """Base summary overlaid with live counts and a delta section."""
        summary = self.base.describe()
        summary["entities"] = self.n2
        summary["delta"] = {
            "entities": self.delta.live_count,
            "allocated": self.delta.allocated,
            "dead_base": len(self.delta.dead_base),
            "tombstones": self.tombstone_count,
        }
        return summary

    def __repr__(self) -> str:
        return (
            f"LiveIndex({self.kb_name!r}, base={self.base.n2}, "
            f"delta={self.delta.live_count}, dead={len(self.delta.dead_base)}, "
            f"epoch={self._epoch})"
        )


class IndexHandle:
    """Generation holder + reader/writer drain gate for zero-drop swaps.

    Queries :meth:`pin` the current index state (many at once);
    mutations and swaps take :meth:`exclusive`, which waits for every
    pinned query to finish -- no in-flight query ever sees a torn
    state, and none is dropped: late pins simply wait and run against
    the *new* state.  Writers are preferred (a waiting writer blocks
    new pins) so a steady query stream cannot starve a swap.

    :attr:`generation` is bumped explicitly (:meth:`bump`) while
    exclusive is held; readers observe it stably for the lifetime of
    their pin.
    """

    def __init__(self, generation: int = 0):
        self._cond = threading.Condition()
        self._readers = 0
        self._writers_waiting = 0
        self._writer_active = False
        self.generation = generation

    @contextmanager
    def pin(self):
        """Hold the current index state for one query."""
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield self.generation
        finally:
            with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()

    @contextmanager
    def exclusive(self):
        """Drain pinned queries, then hold the index exclusively."""
        with self._cond:
            self._writers_waiting += 1
            while self._writer_active or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writer_active = True
        try:
            yield
        finally:
            with self._cond:
                self._writer_active = False
                self._cond.notify_all()

    def bump(self) -> int:
        """Advance the generation (call only while exclusive is held)."""
        self.generation += 1
        return self.generation

    def __repr__(self) -> str:
        return f"IndexHandle(generation={self.generation}, readers={self._readers})"


class LiveServingMixin:
    """Live-index behaviours over any :class:`MatchEngine` subclass.

    Wraps the engine's query entry points in :meth:`IndexHandle.pin`
    and adds ``upsert``/``delete``/``attach_ledger``/``compact``/
    ``reload``, each of which drains in-flight queries, mutates, bumps
    the generation (invalidating every cached answer -- the LRU key
    carries the generation) and refreshes the ``live.*`` gauges.
    Compose it *before* the engine class::

        class LiveEngine(LiveServingMixin, MatchEngine): ...

    The sharded variant (``LiveShardRouter`` in
    :mod:`repro.sharding.router`) reuses this mixin unchanged and
    answers in-process, like this engine, while a delta is active.
    """

    def __init__(self, index, *args, **kwargs):
        live = index if isinstance(index, LiveIndex) else LiveIndex(index)
        super().__init__(live, *args, **kwargs)
        self.handle = IndexHandle()
        self.ledger: UpsertLedger | None = None
        #: Where the serving base lives on disk; ``compact``/``reload``
        #: default to it.  The CLI sets it from ``--index``.
        self.index_path: Path | None = None
        self.swap_count = 0
        #: Optional :class:`repro.serving.compaction.CompactionScheduler`
        #: poked after every mutation so triggers fire promptly.
        self.compaction = None
        self._refresh_gauges()

    # ------------------------------------------------------------------
    # Pinned query paths
    # ------------------------------------------------------------------
    def match(self, entity, **kwargs):
        with self.handle.pin():
            return super().match(entity, **kwargs)

    def match_batch(self, entities, **kwargs):
        with self.handle.pin():
            return super().match_batch(list(entities), **kwargs)

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def _mutate(self, operation: Callable[[], Any]) -> Any:
        """Run ``operation`` under the drain gate and bump the generation."""
        with self.handle.exclusive():
            result = operation()
            self.handle.bump()
            self.generation = self.handle.generation
            self._refresh_gauges()
        if self.compaction is not None:
            self.compaction.poke()
        return result

    def upsert(self, entity: EntityDescription, record: bool = True) -> int:
        """Insert or replace one entity; returns the new generation.

        ``record=False`` skips the ledger append (used when the event
        already came *from* the ledger or an upstream log)."""

        def operation():
            self.index.upsert(entity)
            if record and self.ledger is not None:
                self.ledger.append_upsert(entity)
            self.recorder.count("live.upserts")

        self._mutate(operation)
        return self.generation

    def delete(self, uri: str, record: bool = True) -> bool:
        """Remove one entity by URI; False when it was not live."""

        def operation():
            removed = self.index.delete(uri)
            if removed:
                if record and self.ledger is not None:
                    self.ledger.append_delete(uri)
                self.recorder.count("live.deletes")
            return removed

        return self._mutate(operation)

    def attach_ledger(
        self, ledger: UpsertLedger, replay: bool = True, recover: bool = False
    ) -> int:
        """Adopt ``ledger`` for durability; optionally replay it first.

        Returns the number of replayed events.  Replay applies the
        events without re-appending them, so restart recovery is
        idempotent.  ``recover=True`` lets replay truncate a torn tail
        left by a crash mid-append (see :meth:`UpsertLedger.replay`);
        interior corruption raises :class:`LedgerError` regardless.
        """
        self.ledger = ledger
        if not replay:
            return 0
        events = list(ledger.replay(recover=recover))
        if not events:
            return 0

        def operation():
            for op, value in events:
                self.index.apply(op, value)
            self.recorder.count("live.ledger_ops", len(events))

        self._mutate(operation)
        return len(events)

    # ------------------------------------------------------------------
    # Compaction + zero-drop swap
    # ------------------------------------------------------------------
    def _install_base(self, fresh: ResolutionIndex) -> None:
        """Flip the engine onto a fresh frozen base (exclusive held)."""
        self.index = LiveIndex(fresh)

    def _swap_files(self, fresh: ResolutionIndex, path: Path) -> dict[Path, Any]:
        """The files a swap onto ``fresh`` at ``path`` writes (path ->
        bytes): the base alone here, the sharded tier adds its shards."""
        return {path: fresh.data}

    def _swap_workers(self, fresh: ResolutionIndex, path: Path | None) -> None:
        """Point downstream workers at the swapped files (no-op unsharded)."""

    def compact(self, path: str | Path | None = None) -> ResolutionIndex:
        """Fold the delta into a fresh base and swap onto it in place.

        With a ``path`` (default: :attr:`index_path`) the fresh base --
        and on the sharded tier every shard of it, planned first -- is
        written there byte-deterministically in one
        :func:`~repro.serving.index.write_files` (all temp files, then
        the renames, so concurrent maps of the old files keep their
        pages) and mapped back in; without one the fold stays in
        memory.  The ledger (if attached) is
        truncated: its events now live in the base.  Queries drain
        before the flip and resume against the new base; returns the
        fresh index.

        **Failure isolation**: a compaction that fails partway (the
        ``live:compact`` chaos site, a full disk, a kernel error)
        raises out of the drain gate *without* bumping the generation
        -- the live delta, ledger, served decisions and every file on
        disk are exactly as if the compaction was never attempted, and
        the temp files are removed.  The background scheduler
        (:class:`repro.serving.compaction.CompactionScheduler`) relies
        on this to retry failed compactions safely.
        """
        target = Path(path) if path is not None else self.index_path

        def operation():
            inject("live:compact")
            fresh = self.index.compact()
            if target is not None:
                write_files(self._swap_files(fresh, target))
                fresh = ResolutionIndex.load(target)
            self._swap_workers(fresh, target)
            self._install_base(fresh)
            if self.ledger is not None:
                self.ledger.clear()
            self.swap_count += 1
            self.recorder.count("serving.swaps")
            return fresh

        return self._mutate(operation)

    def reload(self, path: str | Path | None = None) -> int:
        """Zero-drop swap onto the index file at ``path``.

        Loads the new base (the slow part happens before queries are
        blocked), drains in-flight queries, flips the engine -- and the
        sharded tier's workers -- atomically, and bumps the generation.
        Any delta state is discarded: a reload asserts the file already
        contains the desired live state (``repro index --compact``
        produces exactly that).  Returns the new generation.
        """
        target = Path(path) if path is not None else self.index_path
        if target is None:
            raise ValueError("reload needs an index path (none configured)")
        fresh = ResolutionIndex.load(target)

        def operation():
            self._swap_workers(fresh, target)
            self._install_base(fresh)
            self.swap_count += 1
            self.recorder.count("serving.swaps")

        self._mutate(operation)
        return self.generation

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _refresh_gauges(self) -> None:
        live = self.index
        recorder = self.recorder
        recorder.gauge("index.generation", self.generation)
        recorder.gauge("live.delta_entities", live.delta.live_count)
        recorder.gauge("live.tombstones", live.tombstone_count)
        recorder.gauge("live.swaps", self.swap_count)

    def stats(self) -> dict[str, object]:
        snapshot = super().stats()
        live = self.index
        snapshot["live"] = {
            "generation": self.generation,
            "delta_entities": live.delta.live_count,
            "delta_allocated": live.delta.allocated,
            "dead_base": len(live.delta.dead_base),
            "tombstones": live.tombstone_count,
            "swaps": self.swap_count,
            "upserts": int(self.recorder.counter_value("live.upserts")),
            "deletes": int(self.recorder.counter_value("live.deletes")),
            "ledger": str(self.ledger.path) if self.ledger is not None else None,
        }
        return snapshot


class LiveEngine(LiveServingMixin, MatchEngine):
    """A :class:`MatchEngine` over a :class:`LiveIndex`: queries pin,
    mutations drain, swaps never drop a query, and every decision is
    bit-identical to a rebuild holding the same entities."""

    def __repr__(self) -> str:
        live = self.index
        return (
            f"LiveEngine(index={live.kb_name!r}, n2={live.n2}, "
            f"generation={self.generation}, delta={live.delta.live_count})"
        )
