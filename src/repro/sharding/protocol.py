"""Length-prefixed JSONL framing for the shard wire protocol.

A frame is the ASCII decimal byte length of a canonical-JSON message,
a newline, the message, a newline::

    47\\n{"id":3,"op":"match","entity":{...}}\\n

The explicit length makes framing independent of message content (no
embedded-newline hazards) while staying trivially debuggable -- a
captured stream is readable JSONL with interleaved lengths.  Messages
are plain JSON objects; request/response correlation is by ``id``.

Requests (router -> worker): ``op`` of ``hello`` (handshake +
shard descriptor), ``match`` (single-query evidence; carries the
router's alpha ``probe`` and optional ``budget_ms``, plus the live
overlay's ``exclude`` dead-id list and ``weights`` overrides when the
router has pending edits -- see ``docs/live_index.md``), ``batch``
(batch evidence), ``stats`` (engine stats + a
:class:`~repro.obs.recorder.RecorderSnapshot` for trace grafting),
``reload`` (zero-drop swap onto a freshly compacted shard file; the
response is the new ``hello`` descriptor), ``shutdown``; plus
``{"cancel": id}`` (no response -- a hedged request whose twin already
won is dropped if still queued).

Responses (worker -> router) echo ``id`` and carry ``ok``; failures
are ``{"ok": false, "error": ..., "kind": "deadline" | "error"}`` so
the router can distinguish budget expiry (degrade like the engine
would) from worker faults (count against the replica's breaker).

A ``batch`` response carries the shard's
:class:`~repro.kernels.BatchEvidence` as seven packed arrays, one JSON
string each (:func:`pack_batch_evidence`)::

    {"id":7,"ok":true,"service_ms":...,
     "row_lengths":"<b64>","row_ids":"<b64>","row_scores":"<b64>",
     "col_nodes":"<b64>","col_lengths":"<b64>","col_ids":"<b64>",
     "col_scores":"<b64>"}

Each string is the base64 of the array's raw little-endian bytes:
``int32`` for lengths, KB2 ids and batch positions, ``float64`` for
scores.  A 500-query batch against the 100k-entity ``yago_imdb``
benchmark index ships ~242k column pairs per shard (two shards): a
4.5 MB reply, against 6.9 MB as nested JSON lists of ``[id, score]``
pairs, and neither side builds a python object per pair.  The router
validates a packed reply before merging it
(:func:`unpack_batch_evidence`); a malformed one is the replica's
fault, like any worker error.

Scores survive the trip bit-exactly: batch scores are the doubles' own
bytes, and single-query scores are ``repr``-round-trippable JSON
floats.
"""

from __future__ import annotations

import base64
import json
from typing import Any, BinaryIO

import numpy as np

from repro.kernels.interning import BatchEvidence
from repro.obs.recorder import RecorderSnapshot, Span

__all__ = [
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "pack_batch_evidence",
    "read_frame",
    "snapshot_from_json",
    "snapshot_to_json",
    "unpack_batch_evidence",
    "write_frame",
]

MAX_FRAME_BYTES = 256 * 1024 * 1024
"""Upper bound on one frame's payload; a corrupt length prefix must
not make the reader allocate unbounded memory."""

BATCH_DTYPES = dict(
    zip(BatchEvidence._fields, ("<i4", "<i4", "<f8", "<i4", "<i4", "<i4", "<f8"))
)
"""Wire dtype per packed field: little-endian int32 or float64."""


class ProtocolError(RuntimeError):
    """A malformed frame: bad length prefix, truncation, or non-JSON;
    or a packed batch reply that does not decode to valid evidence."""


def write_frame(stream: BinaryIO, message: dict[str, Any]) -> None:
    """Serialise one message onto ``stream`` and flush it."""
    data = json.dumps(message, separators=(",", ":"), ensure_ascii=False).encode(
        "utf-8"
    )
    stream.write(b"%d\n%s\n" % (len(data), data))
    stream.flush()


def read_frame(stream: BinaryIO) -> dict[str, Any] | None:
    """Read one message from ``stream``; None on clean end-of-stream.

    Raises :class:`ProtocolError` on a malformed length line, a frame
    truncated mid-payload, an oversized length, or non-JSON payload.
    """
    line = stream.readline()
    if not line:
        return None
    try:
        length = int(line)
    except ValueError:
        raise ProtocolError(f"bad frame length prefix {line[:64]!r}") from None
    if not 0 <= length <= MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} out of bounds")
    data = stream.read(length + 1)
    if len(data) < length + 1:
        raise ProtocolError(
            f"truncated frame: expected {length + 1} bytes, got {len(data)}"
        )
    try:
        message = json.loads(data[:length])
    except ValueError as error:
        raise ProtocolError(f"frame payload is not JSON: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError(f"frame must be a JSON object, got {type(message).__name__}")
    return message


def pack_batch_evidence(evidence: BatchEvidence) -> dict[str, str]:
    """One shard's batch evidence as the JSON-safe ``batch`` reply fields."""
    return {
        field: base64.b64encode(np.asarray(values, BATCH_DTYPES[field]).tobytes()).decode("ascii")
        for field, values in zip(BatchEvidence._fields, evidence)
    }


def _unpacked(message: dict[str, Any], field: str) -> np.ndarray:
    """One packed field of a ``batch`` reply as a read-only ndarray."""
    dtype = np.dtype(BATCH_DTYPES[field])
    try:
        raw = base64.b64decode(message[field], validate=True)
    except KeyError:
        raise ProtocolError(f"batch reply lacks {field!r}") from None
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"batch reply {field!r} is not base64: {error}") from None
    if len(raw) % dtype.itemsize:
        raise ProtocolError(
            f"batch reply {field!r} has {len(raw)} bytes, "
            f"not a multiple of {dtype.itemsize}"
        )
    return np.frombuffer(raw, dtype)


def _check_ids(what: str, ids: np.ndarray, bound: int) -> None:
    if len(ids) and (ids.min() < 0 or ids.max() >= bound):
        raise ProtocolError(f"batch reply {what} outside [0, {bound})")


def _check_lists(
    what: str, lengths: np.ndarray, ids: np.ndarray, scores: np.ndarray, bound: int
) -> None:
    """Lists laid back to back: lengths that cover the ids and scores
    exactly, and ids within ``[0, bound)``."""
    if len(lengths) and lengths.min() < 0:
        raise ProtocolError(f"batch reply has a negative {what} length")
    total = int(lengths.sum(dtype=np.int64))
    if total != len(ids) or len(ids) != len(scores):
        raise ProtocolError(
            f"batch reply {what} lengths sum to {total} "
            f"for {len(ids)} ids and {len(scores)} scores"
        )
    _check_ids(f"{what} id", ids, bound)


def unpack_batch_evidence(
    message: dict[str, Any], n_entities: int, id_space: int
) -> BatchEvidence:
    """The validated :class:`BatchEvidence` of a ``batch`` reply.

    Raises :class:`ProtocolError` unless every field is base64 of whole
    items, there is one row per batch entity and one length per column,
    lengths sum to their id and score counts, KB2 ids lie in
    ``[0, id_space)``, batch positions in ``[0, n_entities)``, and the
    column ids ascend strictly -- so a corrupt reply can never reach the
    merge as an ``IndexError`` or a wrong decision.
    """
    evidence = BatchEvidence(*(_unpacked(message, field) for field in BatchEvidence._fields))
    if len(evidence.row_lengths) != n_entities:
        raise ProtocolError(
            f"batch reply has {len(evidence.row_lengths)} rows for {n_entities} entities"
        )
    if len(evidence.col_lengths) != len(evidence.col_nodes):
        raise ProtocolError(
            f"batch reply has {len(evidence.col_lengths)} lengths "
            f"for {len(evidence.col_nodes)} columns"
        )
    _check_lists("row", evidence.row_lengths, evidence.row_ids, evidence.row_scores, id_space)
    _check_lists(
        "column", evidence.col_lengths, evidence.col_ids, evidence.col_scores, n_entities
    )
    _check_ids("column node", evidence.col_nodes, id_space)
    nodes = evidence.col_nodes
    if not (nodes[1:] > nodes[:-1]).all():
        raise ProtocolError("batch reply column nodes are not strictly ascending")
    return evidence


def _json_scalar(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def snapshot_to_json(snapshot: RecorderSnapshot) -> dict[str, Any]:
    """A :class:`RecorderSnapshot` as a JSON-safe object.

    Span attributes are coerced to scalars (``str`` fallback); every
    numeric field survives exactly.
    """
    return {
        "trace_id": snapshot.trace_id,
        "duration_s": snapshot.duration_s,
        "spans": [
            [
                span.name,
                span.span_id,
                span.parent_id,
                span.depth,
                span.start,
                span.seconds,
                span.status,
                {key: _json_scalar(value) for key, value in span.attributes.items()},
            ]
            for span in snapshot.spans
        ],
        "counters": dict(snapshot.counters),
        "gauges": dict(snapshot.gauges),
        "gauge_times": dict(snapshot.gauge_times),
        "histograms": {
            name: [count, total, minimum, maximum, list(window)]
            for name, (count, total, minimum, maximum, window) in snapshot.histograms.items()
        },
    }


def snapshot_from_json(payload: dict[str, Any]) -> RecorderSnapshot:
    """Rebuild the snapshot :func:`snapshot_to_json` serialised."""
    return RecorderSnapshot(
        trace_id=payload["trace_id"],
        duration_s=payload["duration_s"],
        spans=tuple(
            Span(
                name=name,
                span_id=span_id,
                parent_id=parent_id,
                depth=depth,
                start=start,
                seconds=seconds,
                status=status,
                attributes=dict(attributes),
            )
            for name, span_id, parent_id, depth, start, seconds, status, attributes in payload["spans"]
        ),
        counters=dict(payload["counters"]),
        gauges=dict(payload["gauges"]),
        gauge_times=dict(payload["gauge_times"]),
        histograms={
            name: (entry[0], entry[1], entry[2], entry[3], tuple(entry[4]))
            for name, entry in payload["histograms"].items()
        },
    )
