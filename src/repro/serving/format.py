"""The columnar on-disk format of :class:`ResolutionIndex` (version 2).

Version 1 persisted the index as one pickle: load time and resident
memory scaled linearly with index size, and nothing could be shared
between processes serving the same index.  Version 2 is a versioned
columnar container designed to be memory-mapped:

::

    MINOANER-INDEX\\x00           15-byte magic
    version                      1 byte (2)
    header length                uint32, little-endian
    header                       UTF-8 JSON (config, tokenizer spec,
                                 counts, section table)
    padding                      zero bytes up to a 64-byte boundary
    sections                     raw little-endian arrays, each aligned
                                 to 64 bytes relative to the payload base

The header carries only O(1) metadata; every O(index)-sized structure
lives in a raw array section:

========================  =====  =========================================
section                   dtype  contents
========================  =====  =========================================
``token_blob``            u1     UTF-8 bytes of all tokens, sorted
``token_offsets``         i4     token -> blob slice (``n_tokens + 1``)
``posting_offsets``       i4     token -> postings slice (``n_tokens + 1``)
``posting_ids``           i4     CSR-flattened ascending KB2 entity ids
``token_weights``         f8     hoisted ``1/log2(EF2+1)`` per token
``name_blob``             u1     UTF-8 bytes of all normalised names, sorted
``name_offsets``          i4     name -> blob slice (``n_names + 1``)
``name_id_offsets``       i4     name -> id slice (``n_names + 1``)
``name_ids``              i4     CSR-flattened entity ids per name
``uri_blob``              u1     UTF-8 bytes of all entity URIs, by id
``uri_offsets``           i4     entity id -> blob slice (``n2 + 1``)
``neighbor_offsets``      i4     top in-neighbor CSR offsets (``n2 + 1``)
``neighbor_ids``          i4     top in-neighbor CSR ids
``token_global_ef``       i4     *optional*: global ``EF2(t)`` per token
========================  =====  =========================================

The ``token_global_ef`` section and the ``shards`` header key exist only
in per-shard files written by :class:`repro.sharding.ShardPlanner`: a
shard keeps the full (global) token table but only its own entities'
posting slices, so the global Entity Frequency of every token -- which
drives block weights and purging thresholds -- must travel with the
file.  Readers that predate sharding ignore both (the header parser
tolerates unknown sections), and files without them encode byte-for-byte
exactly as before.

Tokens and names are sorted by their UTF-8 byte sequences (identical to
Python's code-point string order), so a lookup is one binary search over
the offset table -- no hash map is ever materialised.  Because sections
are plain little-endian buffers, ``load`` maps the file once and hands
out zero-copy numpy views: load time is O(1) in index size and all
processes mapping one file share its read-only pages through the page
cache.  The format contains no executable payload -- decoding touches
only ``json.loads``, integer arrays and UTF-8 -- unlike the legacy
pickle, which could execute arbitrary code on load.

:func:`encode_index` is deterministic (sorted keys, zero padding,
canonical JSON), so ``save -> load -> save`` reproduces a file byte for
byte; the round-trip test gates on it.
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from repro.core.config import MinoanERConfig, config_from_dict, config_to_dict
from repro.kb.tokenizer import Tokenizer
from repro.kernels import CSRAdjacency

MAGIC = b"MINOANER-INDEX\x00"
FORMAT_VERSION = 2
ALIGNMENT = 64

_HEADER_LEN_STRUCT = struct.Struct("<I")
_PREFIX_LEN = len(MAGIC) + 1 + _HEADER_LEN_STRUCT.size
_INT32_MAX = 2**31 - 1

_DTYPE_ITEMSIZE = {"u1": 1, "i4": 4, "f8": 8}

_SECTION_NAMES = (
    "token_blob",
    "token_offsets",
    "posting_offsets",
    "posting_ids",
    "token_weights",
    "name_blob",
    "name_offsets",
    "name_id_offsets",
    "name_ids",
    "uri_blob",
    "uri_offsets",
    "neighbor_offsets",
    "neighbor_ids",
)

assert array("i").itemsize == 4 and array("d").itemsize == 8


def _le_bytes(arr: array) -> bytes:
    """The array's raw bytes in little-endian order."""
    if sys.byteorder == "big":
        arr = array(arr.typecode, arr)
        arr.byteswap()
    return arr.tobytes()


def _blob_and_offsets(strings: Sequence[str]) -> tuple[bytes, array]:
    """Concatenated UTF-8 blob + (len + 1) int32 slice offsets."""
    offsets = array("i", [0])
    parts: list[bytes] = []
    total = 0
    for text in strings:
        encoded = text.encode("utf-8")
        parts.append(encoded)
        total += len(encoded)
        offsets.append(total)
    if total > _INT32_MAX:
        raise ValueError(f"string blob of {total} bytes overflows int32 offsets")
    return b"".join(parts), offsets


def _csr_ids(groups: Sequence[Sequence[int]]) -> tuple[array, array]:
    """Flattened int32 ids + (len + 1) int32 offsets of id groups."""
    offsets = array("i", [0])
    ids = array("i")
    for group in groups:
        for eid in group:
            ids.append(int(eid))
        if len(ids) > _INT32_MAX:
            raise ValueError(f"{len(ids)} CSR entries overflow int32 offsets")
        offsets.append(len(ids))
    return ids, offsets


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


def encode_index(fields: Mapping[str, Any]) -> bytes:
    """Serialise the persisted fields of a :class:`ResolutionIndex`.

    ``fields`` holds the same keys the legacy pickle persisted
    (``repro.serving.index._PERSISTED_FIELDS``); mapping values may be
    plain dicts or the mapped read-only views, so a built and a loaded
    index save identically.
    """
    postings = fields["postings"]
    weights = fields["singleton_weights"]
    names = fields["names"]
    uris: Sequence[str] = fields["uris2"]
    adjacency: CSRAdjacency = fields["in_neighbors"]
    tokenizer: Tokenizer = fields["tokenizer"]

    tokens = sorted(postings)
    token_blob, token_offsets = _blob_and_offsets(tokens)
    posting_ids, posting_offsets = _csr_ids([postings[t] for t in tokens])
    token_weights = array("d", (weights[t] for t in tokens))

    sorted_names = sorted(names)
    name_blob, name_offsets = _blob_and_offsets(sorted_names)
    name_ids, name_id_offsets = _csr_ids([names[n] for n in sorted_names])

    uri_blob, uri_offsets = _blob_and_offsets(uris)
    neighbor_offsets = array("i", (int(v) for v in adjacency.offsets))
    neighbor_ids = array("i", (int(v) for v in adjacency.ids))

    raw: dict[str, tuple[str, bytes, int]] = {
        "token_blob": ("u1", token_blob, len(token_blob)),
        "token_offsets": ("i4", _le_bytes(token_offsets), len(token_offsets)),
        "posting_offsets": ("i4", _le_bytes(posting_offsets), len(posting_offsets)),
        "posting_ids": ("i4", _le_bytes(posting_ids), len(posting_ids)),
        "token_weights": ("f8", _le_bytes(token_weights), len(token_weights)),
        "name_blob": ("u1", name_blob, len(name_blob)),
        "name_offsets": ("i4", _le_bytes(name_offsets), len(name_offsets)),
        "name_id_offsets": ("i4", _le_bytes(name_id_offsets), len(name_id_offsets)),
        "name_ids": ("i4", _le_bytes(name_ids), len(name_ids)),
        "uri_blob": ("u1", uri_blob, len(uri_blob)),
        "uri_offsets": ("i4", _le_bytes(uri_offsets), len(uri_offsets)),
        "neighbor_offsets": ("i4", _le_bytes(neighbor_offsets), len(neighbor_offsets)),
        "neighbor_ids": ("i4", _le_bytes(neighbor_ids), len(neighbor_ids)),
    }

    section_names = list(_SECTION_NAMES)
    global_ef = fields.get("token_global_ef")
    if global_ef is not None:
        ef_values = array("i", (int(global_ef[token]) for token in tokens))
        raw["token_global_ef"] = ("i4", _le_bytes(ef_values), len(ef_values))
        section_names.append("token_global_ef")

    chunks: list[bytes] = []
    sections: list[dict[str, Any]] = []
    cursor = 0
    for name in section_names:
        dtype, data, count = raw[name]
        pad = (-cursor) % ALIGNMENT
        if pad:
            chunks.append(b"\x00" * pad)
            cursor += pad
        sections.append(
            {"name": name, "dtype": dtype, "offset": cursor, "count": count}
        )
        chunks.append(data)
        cursor += len(data)

    header = {
        "kb_name": fields["kb_name"],
        "n2": int(fields["n2"]),
        "name_attributes": list(fields["name_attributes"]),
        "config": config_to_dict(fields["config"]),
        "tokenizer": {
            "min_length": tokenizer.min_length,
            "stopwords": sorted(tokenizer.stopwords),
        },
        "counts": {
            "tokens": len(tokens),
            "names": len(sorted_names),
            "posting_entries": len(posting_ids),
            "name_entries": len(name_ids),
            "neighbor_edges": len(neighbor_ids),
        },
        "sections": sections,
    }
    shard_info = fields.get("shard_info")
    if shard_info is not None:
        header["shards"] = dict(shard_info)
    header_bytes = json.dumps(
        header, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")

    prefix = (
        MAGIC
        + bytes([FORMAT_VERSION])
        + _HEADER_LEN_STRUCT.pack(len(header_bytes))
        + header_bytes
    )
    prefix += b"\x00" * ((-len(prefix)) % ALIGNMENT)
    return prefix + b"".join(chunks)


# ----------------------------------------------------------------------
# Container parsing
# ----------------------------------------------------------------------


def read_version(data: bytes) -> int:
    """Validate the magic and return the version byte of ``data``.

    Raises ``ValueError`` on a foreign prefix or a file too short to
    carry a version byte.
    """
    if data[: len(MAGIC)] != MAGIC:
        raise ValueError("not a MinoanER resolution index")
    if len(data) < len(MAGIC) + 1:
        raise ValueError("unsupported index format version None (truncated file)")
    return data[len(MAGIC)]


def parse_header(data: bytes | memoryview, size: int) -> tuple[dict, int]:
    """The JSON header of a v2 container + the payload base offset.

    ``size`` is the container's total byte length, used to validate the
    section table; raises ``ValueError`` on truncation or corruption.
    """
    if size < _PREFIX_LEN:
        raise ValueError("truncated index file: missing header length")
    (header_len,) = _HEADER_LEN_STRUCT.unpack(
        bytes(data[len(MAGIC) + 1 : _PREFIX_LEN])
    )
    if _PREFIX_LEN + header_len > size:
        raise ValueError("truncated index file: incomplete header")
    try:
        header = json.loads(bytes(data[_PREFIX_LEN : _PREFIX_LEN + header_len]))
    except ValueError as error:
        raise ValueError(f"corrupt index header: {error}") from None
    base = _PREFIX_LEN + header_len
    base += (-base) % ALIGNMENT
    try:
        sections = header["sections"]
        for section in sections:
            end = base + section["offset"]
            end += section["count"] * _DTYPE_ITEMSIZE[section["dtype"]]
            if end > size:
                raise ValueError(
                    f"truncated index file: section {section['name']!r} "
                    f"ends at byte {end}, file has {size}"
                )
        present = {section["name"] for section in sections}
        missing = set(_SECTION_NAMES) - present
        if missing:
            raise ValueError(f"corrupt index header: missing sections {sorted(missing)}")
    except (KeyError, TypeError) as error:
        raise ValueError(f"corrupt index header: {error!r}") from None
    return header, base


def _header_fields(header: dict) -> dict[str, Any]:
    """The O(1) metadata fields of a parsed header."""
    spec = header["tokenizer"]
    return {
        "kb_name": header["kb_name"],
        "n2": int(header["n2"]),
        "name_attributes": tuple(header["name_attributes"]),
        "config": config_from_dict(header["config"]),
        "tokenizer": Tokenizer(
            min_length=spec["min_length"], stopwords=spec["stopwords"]
        ),
    }


# ----------------------------------------------------------------------
# Zero-copy views over the mapped file
# ----------------------------------------------------------------------


class StringTable:
    """Binary search over a sorted UTF-8 blob + offset table.

    Comparison happens on raw UTF-8 byte sequences, whose lexicographic
    order equals Python's code-point string order, so :meth:`find`
    agrees with a ``sorted()`` of the decoded strings.

    The offset array (4 bytes per string, tiny next to the blob) is
    flattened to python ints and the blob wrapped in a ``memoryview``
    on the first lookup, keeping load O(1) while dropping the per-probe
    cost from two section scalar reads plus a slice to two list reads
    plus a buffer slice.  Resolved indices are
    memoised: one online query consults the same token several times
    (membership, posting, weight, global EF), and query streams repeat
    tokens heavily, so most lookups are a dict hit.
    """

    __slots__ = ("_blob", "_offsets", "count", "_view", "_bounds", "_cache")

    _CACHE_LIMIT = 1 << 18

    def __init__(self, blob, offsets):
        self._blob = blob
        self._offsets = offsets
        self.count = len(offsets) - 1
        self._view = None
        self._bounds = None
        self._cache: dict[str, int] = {}

    def _materialise(self):
        self._bounds = bounds = self._offsets.tolist()
        self._view = view = memoryview(self._blob)
        return view, bounds

    def find(self, text: str) -> int:
        """Index of ``text`` in the table, or -1."""
        cache = self._cache
        found = cache.get(text)
        if found is None:
            view, bounds = self._view, self._bounds
            if bounds is None:
                view, bounds = self._materialise()
            key = text.encode("utf-8")
            lo, hi = 0, self.count
            found = -1
            while lo < hi:
                mid = (lo + hi) // 2
                probe = bytes(view[bounds[mid] : bounds[mid + 1]])
                if probe < key:
                    lo = mid + 1
                elif probe > key:
                    hi = mid
                else:
                    found = mid
                    break
            if len(cache) >= self._CACHE_LIMIT:
                cache.clear()
            cache[text] = found
        return found

    def decode(self, i: int) -> str:
        view, bounds = self._view, self._bounds
        if bounds is None:
            view, bounds = self._materialise()
        return bytes(view[bounds[i] : bounds[i + 1]]).decode("utf-8")

    def __iter__(self) -> Iterator[str]:
        for i in range(self.count):
            yield self.decode(i)


class MappedPostings(Mapping):
    """Token -> zero-copy int32 posting slice over the mapped file.

    A lookup is one binary search (O(log tokens)) plus an array view --
    no python list of ids is ever materialised, and the bytes behind the
    view are the mapped file pages themselves.
    """

    __slots__ = ("_table", "_offsets", "_ids")

    def __init__(self, table: StringTable, offsets, ids):
        self._table = table
        self._offsets = offsets
        self._ids = ids

    def __getitem__(self, token: str):
        i = self._table.find(token)
        if i < 0:
            raise KeyError(token)
        return self._ids[self._offsets[i] : self._offsets[i + 1]]

    def __contains__(self, token: object) -> bool:
        return isinstance(token, str) and self._table.find(token) >= 0

    def get(self, token: str, default=()):
        i = self._table.find(token)
        if i < 0:
            return default
        return self._ids[self._offsets[i] : self._offsets[i + 1]]

    def __iter__(self) -> Iterator[str]:
        return iter(self._table)

    def __len__(self) -> int:
        return self._table.count

    def total_entries(self) -> int:
        """Posting entries across all tokens, without iterating them."""
        return len(self._ids)

    def __repr__(self) -> str:
        return f"MappedPostings({len(self)} tokens, {len(self._ids)} entries)"


class MappedWeights(Mapping):
    """Token -> hoisted singleton block weight (float), zero-copy."""

    __slots__ = ("_table", "_weights")

    def __init__(self, table: StringTable, weights):
        self._table = table
        self._weights = weights

    def __getitem__(self, token: str) -> float:
        i = self._table.find(token)
        if i < 0:
            raise KeyError(token)
        return float(self._weights[i])

    def __contains__(self, token: object) -> bool:
        return isinstance(token, str) and self._table.find(token) >= 0

    def __iter__(self) -> Iterator[str]:
        return iter(self._table)

    def __len__(self) -> int:
        return self._table.count


class MappedNames(Mapping):
    """Normalised name -> tuple of entity ids, decoded per lookup.

    Id groups are tiny (typically one entity), so they are returned as
    plain int tuples -- identical to what :meth:`ResolutionIndex.build`
    holds -- while the table itself stays on mapped pages.
    """

    __slots__ = ("_table", "_offsets", "_ids")

    def __init__(self, table: StringTable, offsets, ids):
        self._table = table
        self._offsets = offsets
        self._ids = ids

    def __getitem__(self, name: str) -> tuple[int, ...]:
        i = self._table.find(name)
        if i < 0:
            raise KeyError(name)
        return tuple(self._ids[self._offsets[i] : self._offsets[i + 1]].tolist())

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self._table.find(name) >= 0

    def __iter__(self) -> Iterator[str]:
        return iter(self._table)

    def __len__(self) -> int:
        return self._table.count


class MappedEntityFrequencies(Mapping):
    """Token -> global Entity Frequency (int), zero-copy.

    Present only in per-shard files; see the module docstring.
    """

    __slots__ = ("_table", "_values")

    def __init__(self, table: StringTable, values):
        self._table = table
        self._values = values

    def __getitem__(self, token: str) -> int:
        i = self._table.find(token)
        if i < 0:
            raise KeyError(token)
        return int(self._values[i])

    def __contains__(self, token: object) -> bool:
        return isinstance(token, str) and self._table.find(token) >= 0

    def __iter__(self) -> Iterator[str]:
        return iter(self._table)

    def __len__(self) -> int:
        return self._table.count


class MappedURIs(Sequence):
    """Entity id -> URI string, decoded on demand from the mapped blob.

    Like :class:`StringTable`, the offsets flatten to python ints on
    first access so per-decision decodes stay off the section scalar
    path; the URI bytes themselves remain mapped.
    """

    __slots__ = ("_blob", "_offsets", "_view", "_bounds")

    def __init__(self, blob, offsets):
        self._blob = blob
        self._offsets = offsets
        self._view = None
        self._bounds = None

    def __getitem__(self, eid):
        if isinstance(eid, slice):
            return [self[i] for i in range(*eid.indices(len(self)))]
        bounds = self._bounds
        if bounds is None:
            self._bounds = bounds = self._offsets.tolist()
            self._view = memoryview(self._blob)
        n = len(bounds) - 1
        if eid < 0:
            eid += n
        if not 0 <= eid < n:
            raise IndexError(eid)
        return bytes(self._view[bounds[eid] : bounds[eid + 1]]).decode("utf-8")

    def __iter__(self) -> Iterator[str]:
        # A full pass (the live overlay's URI -> id map, the shard
        # planner) copies the blob once and slices plain bytes, instead
        # of a mapped-view slice plus a copy per URI.
        blob = bytes(self._blob)
        bounds = self._offsets.tolist()
        for start, end in zip(bounds, bounds[1:]):
            yield blob[start:end].decode("utf-8")

    def __len__(self) -> int:
        return len(self._offsets) - 1


def _section(data, base: int, section: dict):
    """Zero-copy view of one section of ``data``: a ``memoryview``
    slice for byte blobs, a little-endian ``numpy.frombuffer`` array for
    ``i4``/``f8`` sections."""
    start = base + section["offset"]
    count = section["count"]
    dtype = section["dtype"]
    if dtype == "u1":
        return memoryview(data)[start : start + count]
    return np.frombuffer(data, "<" + dtype, count, start)


def open_sections(data) -> dict[str, Any]:
    """The persisted fields of a v2 container as zero-copy views.

    ``data`` is the whole container: an ``mmap.mmap`` of the file (what
    :meth:`repro.serving.ResolutionIndex.load` passes) or its bytes.
    Every O(index) field is a view over ``data``; nothing is decoded up
    front, so opening is O(1) in index size.
    """
    header, base = parse_header(data, len(data))
    sections = {section["name"]: section for section in header["sections"]}

    def view(name: str):
        return _section(data, base, sections[name])

    token_table = StringTable(view("token_blob"), view("token_offsets"))
    name_table = StringTable(view("name_blob"), view("name_offsets"))

    fields = _header_fields(header)
    fields["postings"] = MappedPostings(
        token_table, view("posting_offsets"), view("posting_ids")
    )
    fields["singleton_weights"] = MappedWeights(token_table, view("token_weights"))
    fields["names"] = MappedNames(name_table, view("name_id_offsets"), view("name_ids"))
    fields["uris2"] = MappedURIs(view("uri_blob"), view("uri_offsets"))
    fields["in_neighbors"] = CSRAdjacency(
        view("neighbor_offsets"), view("neighbor_ids")
    )
    if "token_global_ef" in sections:
        fields["token_global_ef"] = MappedEntityFrequencies(
            token_table, view("token_global_ef")
        )
    if "shards" in header:
        fields["shard_info"] = header["shards"]
    return fields
