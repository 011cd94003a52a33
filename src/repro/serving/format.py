"""The columnar container, and the index file built on it (version 2).

One container has one writer (:func:`write_sections`), one reader
(:func:`read_sections`) and one list validator (:func:`check_lists`),
and two users: the :class:`ResolutionIndex` file and the shard wire's
``batch`` reply, a container under the frame magic
(:mod:`repro.sharding.protocol`).

A frozen index *is* its container, in one form whether built or loaded.
Its producers -- ``ResolutionIndex.build``, the shard planner and the
live fold -- compute the section arrays and encode them
(:func:`encode_index`); :func:`open_sections` wraps the bytes, or the
file ``load`` maps, in zero-copy views: postings are int32 views of
``posting_ids``, not per-token lists.  Version 1 was one pickle, loaded
whole and shared by no process; version 2 is designed to be mapped:

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
file.  Ordinary index files carry neither.

Tokens and names are sorted by their UTF-8 byte sequences (identical to
Python's code-point string order), so a lookup is one binary search over
the offset table -- no hash map is ever materialised.  Because sections
are plain little-endian buffers, ``load`` maps the file once and hands
out zero-copy numpy views, and all processes mapping one file share its
read-only pages through the page cache.  Loading is not O(1): it first
runs :func:`check_lists` over the three CSR sections, which takes a
load of the 100k-entity benchmark index (2.1M ids, in the page cache)
from ~0.08 ms to ~1.4 ms.  The format contains no executable payload --
decoding touches only ``json.loads``, integer arrays and UTF-8 --
unlike the legacy pickle, which could execute arbitrary code on load.

Encoding is deterministic (sorted tables, canonical JSON, zero padding),
so equal contents are equal bytes, whichever producer encoded them.
"""

from __future__ import annotations

import json
import struct
from itertools import chain
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.config import config_from_dict, config_to_dict
from repro.kb.tokenizer import Tokenizer
from repro.kernels import CSRAdjacency, block_weight

MAGIC = b"MINOANER-INDEX\x00"
FORMAT_VERSION = 2
ALIGNMENT = 64
_PREFIX = MAGIC + bytes([FORMAT_VERSION])

_HEADER_LEN_STRUCT = struct.Struct("<I")
_INT32_MAX = 2**31 - 1

_DTYPE_ITEMSIZE = {"u1": 1, "i4": 4, "f8": 8}

#: The index file's section names, in the order of the table above.
SECTIONS = (
    "token_blob token_offsets posting_offsets posting_ids token_weights name_blob name_offsets "
    "name_id_offsets name_ids uri_blob uri_offsets neighbor_offsets neighbor_ids token_global_ef"
).split()

# ----------------------------------------------------------------------
# The container: one writer, one reader, one list validator
# ----------------------------------------------------------------------


def _raw(name: str, values) -> tuple[str, bytes]:
    """``(dtype, little-endian bytes)`` of one section: byte strings are
    ``u1``, float arrays ``f8`` and integer arrays ``i4``."""
    if isinstance(values, (bytes, bytearray, memoryview)):
        return "u1", bytes(values)
    values = np.asarray(values)
    if values.dtype.kind == "f":
        return "f8", values.astype("<f8").tobytes()
    if values.dtype.itemsize > 4 and len(values):
        if values.min() < -_INT32_MAX - 1 or values.max() > _INT32_MAX:
            raise ValueError(f"section {name!r} overflows int32")
    return "i4", values.astype("<i4").tobytes()


def write_sections(magic: bytes, header: Mapping[str, Any], arrays: Mapping[str, Any]) -> bytes:
    """``magic``, the canonical-JSON ``header`` plus a ``sections`` table,
    then each of ``arrays`` in order as raw little-endian bytes, 64-byte
    aligned from the container's first byte.  Deterministic."""
    chunks: list[bytes] = []
    table: list[dict[str, Any]] = []
    cursor = 0
    for name, values in arrays.items():
        dtype, data = _raw(name, values)
        pad = -cursor % ALIGNMENT
        chunks.append(bytes(pad))
        count = len(data) // _DTYPE_ITEMSIZE[dtype]
        table.append({"name": name, "dtype": dtype, "offset": cursor + pad, "count": count})
        chunks.append(data)
        cursor += pad + len(data)
    header_bytes = json.dumps(
        {**header, "sections": table}, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")
    prefix = magic + _HEADER_LEN_STRUCT.pack(len(header_bytes)) + header_bytes
    return b"".join([prefix, bytes(-len(prefix) % ALIGNMENT), *chunks])


def parse_header(data, size: int, magic: bytes = _PREFIX, what: str = "index") -> tuple[dict, int]:
    """The JSON header of a ``size``-byte container + the offset its
    sections count from.  Raises ``ValueError`` (worded with ``what``) on
    a foreign prefix, a truncated or non-JSON header, or a section table
    entry that is malformed or runs past ``size``."""
    start = len(magic) + _HEADER_LEN_STRUCT.size
    if bytes(data[: len(magic)]) != magic:
        raise ValueError(f"not a MinoanER {what}")
    if size < start:
        raise ValueError(f"truncated {what} file: missing header length")
    (header_len,) = _HEADER_LEN_STRUCT.unpack(bytes(data[len(magic) : start]))
    if start + header_len > size:
        raise ValueError(f"truncated {what} file: incomplete header")
    try:
        header = json.loads(bytes(data[start : start + header_len]))
    except ValueError as error:
        raise ValueError(f"corrupt {what} header: {error}") from None
    base = start + header_len
    base += -base % ALIGNMENT
    try:
        for section in header["sections"]:
            name, count, offset = section["name"], section["count"], section["offset"]
            if section["dtype"] not in _DTYPE_ITEMSIZE:
                raise ValueError(
                    f"corrupt {what} header: section {name!r} has unknown dtype "
                    f"{section['dtype']!r}"
                )
            if type(count) is not int or count < 0 or type(offset) is not int or offset % ALIGNMENT:
                raise ValueError(
                    f"corrupt {what} header: section {name!r} is not a whole number of "
                    f"aligned items (offset {offset!r}, count {count!r})"
                )
            end = base + offset + count * _DTYPE_ITEMSIZE[section["dtype"]]
            if end > size:
                raise ValueError(
                    f"truncated {what} file: section {name!r} ends at byte {end}, file has {size}"
                )
    except (KeyError, TypeError) as error:
        raise ValueError(f"corrupt {what} header: {error!r}") from None
    return header, base


def read_sections(data, magic: bytes = _PREFIX, what: str = "index"):
    """``(header without its section table, {name: view})`` of a
    container's bytes or ``mmap``.  Views are zero-copy: a ``memoryview``
    per ``u1`` section, a little-endian ``numpy.frombuffer`` array per
    ``i4``/``f8`` one."""
    header, base = parse_header(data, len(data), magic, what)
    views = {}
    for section in header.pop("sections"):
        start = base + section["offset"]
        count = section["count"]
        if section["dtype"] == "u1":
            views[section["name"]] = memoryview(data)[start : start + count]
        else:
            views[section["name"]] = np.frombuffer(data, "<" + section["dtype"], count, start)
    return header, views


def check_lists(
    what: str, ids, bound: int, *, offsets=None, lengths=None, rows=None, ascending=False
) -> None:
    """Refuse ``ids`` unless they are well-formed lists laid back to back.

    The lists are cut by ``offsets`` (slice bounds from 0 to
    ``len(ids)``) or ``lengths`` (one count per list, summing to
    ``len(ids)``); with neither, ``ids`` is one list.  No list may have
    a negative length, ``rows`` (when given) is the expected number of
    lists, every id lies in ``[0, bound)`` and, with ``ascending``, ids
    ascend strictly within each list.  Ids and bounds must be integer
    arrays.  Raises ``ValueError`` naming ``what``.
    """
    ids = np.asarray(ids)
    if lengths is None and offsets is None:
        offsets = [0, len(ids)]
    cuts = np.asarray(lengths if lengths is not None else offsets)
    if ids.dtype.kind != "i" or cuts.dtype.kind != "i":
        raise ValueError(f"{what}: ids and list bounds must be integer arrays")
    if lengths is not None:
        cuts = np.concatenate([[0], np.cumsum(cuts, dtype=np.int64)])
    if rows is not None and len(cuts) != rows + 1:
        raise ValueError(f"{what}: {len(cuts) - 1} lists for {rows} rows")
    if len(cuts) == 0 or cuts[0] != 0 or cuts[-1] != len(ids):
        raise ValueError(f"{what}: list bounds do not cover the {len(ids)} ids exactly")
    if (cuts[1:] < cuts[:-1]).any():
        raise ValueError(f"{what}: a list has negative length")
    if len(ids) and (ids.min() < 0 or ids.max() >= bound):
        raise ValueError(f"{what}: id outside [0, {bound})")
    if ascending:
        rising = ids[1:] > ids[:-1]
        starts = cuts[1:-1]
        rising[starts[(starts > 0) & (starts < len(ids))] - 1] = True
        if not rising.all():
            raise ValueError(f"{what}: ids do not ascend strictly within a list")


# ----------------------------------------------------------------------
# The index file
# ----------------------------------------------------------------------


def string_table(strings: Sequence[str]) -> tuple[bytes, Any]:
    """UTF-8 blob + (len + 1) slice offsets of ``strings``, in order."""
    encoded = [text.encode("utf-8") for text in strings]
    return b"".join(encoded), _offsets(map(len, encoded), len(encoded))


def csr_lists(groups: Sequence[Sequence[int]]) -> tuple[Any, Any]:
    """(len + 1) offsets + flattened ids of id groups."""
    ids = np.fromiter(chain.from_iterable(groups), np.int64)
    return _offsets(map(len, groups), len(groups)), ids


def _offsets(lengths: Iterable[int], count: int):
    """``count + 1`` slice bounds of lists with these lengths."""
    offsets = np.zeros(count + 1, np.int64)
    np.cumsum(np.fromiter(lengths, np.int64, count), out=offsets[1:])
    return offsets


def take_rows(values, offsets, rows) -> tuple[Any, Any]:
    """Rows ``rows`` of the CSR ``(values, offsets)``, in that order, as
    a new ``(values, offsets)`` pair: one gather, no per-row loop."""
    offsets = np.asarray(offsets, np.int64)
    rows = np.asarray(rows, np.int64)
    starts = offsets[rows]
    lengths = offsets[rows + 1] - starts
    taken = np.zeros(len(rows) + 1, np.int64)
    np.cumsum(lengths, out=taken[1:])
    gather = np.arange(taken[-1]) + np.repeat(starts - taken[:-1], lengths)
    return np.asarray(values)[gather], taken


def token_weights(lengths):
    """The ``token_weights`` section: :func:`block_weight` of each
    posting length, computed once per distinct length."""
    distinct, inverse = np.unique(np.asarray(lengths, np.int64), return_inverse=True)
    return np.array([block_weight(int(n)) for n in distinct], np.float64)[inverse]


def encode_index(
    arrays: Mapping[str, Any], *, kb_name: str, n2: int, name_attributes: Sequence[str],
    config, tokenizer: Tokenizer, shard_info: Mapping[str, Any] | None = None,
) -> bytes:
    """The index container of ``arrays`` -- the sections of the module
    docstring's table, in its order -- under a header of the index's
    metadata and the counts read off the arrays."""
    header = {
        "kb_name": kb_name,
        "n2": int(n2),
        "name_attributes": list(name_attributes),
        "config": config_to_dict(config),
        "tokenizer": {"min_length": tokenizer.min_length, "stopwords": sorted(tokenizer.stopwords)},
        "counts": {
            "tokens": len(arrays["token_offsets"]) - 1,
            "names": len(arrays["name_offsets"]) - 1,
            "posting_entries": len(arrays["posting_ids"]),
            "name_entries": len(arrays["name_ids"]),
            "neighbor_edges": len(arrays["neighbor_ids"]),
        },
    }
    if shard_info is not None:
        header["shards"] = dict(shard_info)
    return write_sections(_PREFIX, header, arrays)


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

    __slots__ = ("_table", "_offsets", "_ids", "_lengths")

    def __init__(self, table: StringTable, offsets, ids):
        self._table = table
        self._offsets = offsets
        self._ids = ids
        self._lengths = None

    def __getitem__(self, token: str):
        i = self._table.find(token)
        if i < 0:
            raise KeyError(token)
        return self._ids[self._offsets[i] : self._offsets[i + 1]]

    def frequency(self, token: str) -> int:
        """Posting length of ``token``, 0 when absent: one table probe.

        The lengths flatten to a python list on first use (small ints,
        mostly shared objects), so the read is a list index, not two
        section scalar reads and a slice.
        """
        i = self._table.find(token)
        if i < 0:
            return 0
        lengths = self._lengths
        if lengths is None:
            self._lengths = lengths = np.diff(self._offsets).tolist()
        return lengths[i]

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

    def get(self, token: str, default=None):
        i = self._table.find(token)
        return default if i < 0 else int(self._values[i])

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


def open_sections(data) -> dict[str, Any]:
    """The fields of a :class:`~repro.serving.ResolutionIndex` over the
    v2 container ``data``, as zero-copy views.

    ``data`` is the whole container: an ``mmap.mmap`` of the file (what
    :meth:`repro.serving.ResolutionIndex.load` passes) or the bytes a
    producer encoded.  Every O(index) field is a view over ``data``;
    nothing is decoded up front, and ``sections`` holds the raw section
    arrays the planner and the live fold cut from.  The CSR sections
    pass :func:`check_lists` first, so a corrupt container is a
    ``ValueError`` naming the section, never a wrong answer.
    """
    header, views = read_sections(data)
    try:
        spec = header["tokenizer"]
        n2 = int(header["n2"])
        check_lists(
            "posting_ids", views["posting_ids"], n2, offsets=views["posting_offsets"],
            rows=len(views["token_offsets"]) - 1, ascending=True,
        )
        check_lists(
            "name_ids", views["name_ids"], n2, offsets=views["name_id_offsets"],
            rows=len(views["name_offsets"]) - 1,
        )
        check_lists(
            "neighbor_ids", views["neighbor_ids"], n2, offsets=views["neighbor_offsets"], rows=n2
        )
        token_table = StringTable(views["token_blob"], views["token_offsets"])
        name_table = StringTable(views["name_blob"], views["name_offsets"])
        global_ef = views.get("token_global_ef")
        return {
            "sections": views,
            "kb_name": header["kb_name"],
            "n2": n2,
            "name_attributes": tuple(header["name_attributes"]),
            "config": config_from_dict(header["config"]),
            "tokenizer": Tokenizer(min_length=spec["min_length"], stopwords=spec["stopwords"]),
            "postings": MappedPostings(token_table, views["posting_offsets"], views["posting_ids"]),
            "singleton_weights": MappedWeights(token_table, views["token_weights"]),
            "names": MappedNames(name_table, views["name_id_offsets"], views["name_ids"]),
            "uris2": MappedURIs(views["uri_blob"], views["uri_offsets"]),
            "in_neighbors": CSRAdjacency(views["neighbor_offsets"], views["neighbor_ids"]),
            "token_global_ef": (
                None if global_ef is None else MappedEntityFrequencies(token_table, global_ef)
            ),
            "shard_info": header.get("shards"),
        }
    except (KeyError, TypeError) as error:
        raise ValueError(f"corrupt index header: missing or malformed {error!r}") from None
