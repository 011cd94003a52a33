"""Length-prefixed framing for the shard wire protocol.

A frame is the ASCII decimal byte length of its payload, a newline,
the payload, a newline.  Most payloads are one compact-JSON message::

    47\\n{"id":3,"op":"match","entity":{...}}\\n

The explicit length makes framing independent of message content (no
embedded-newline hazards) while staying trivially debuggable -- a
captured stream of JSON frames is readable JSONL with interleaved
lengths.  Messages are JSON objects; request/response correlation is
by ``id``.

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
:class:`~repro.kernels.BatchEvidence` as seven arrays.  Any message
with ndarray (or ``bytes``) values travels as a *sectioned* frame: its
payload is the columnar container of :mod:`repro.serving.format` --
the index file's layout, read by the same reader -- under its own
magic::

    3395129\\n                    payload length, newline
    MINOANER-FRAME\\x00 \\x02       15-byte magic + version byte
    header length                uint32, little-endian
    header                       {"id":7,"ok":true,"sections":[...],...}
    padding                      zero bytes up to a 64-byte boundary
    row_lengths .. col_scores    raw little-endian int32 / float64
                                 arrays, each 64-byte aligned
    \\n

The header is the message's JSON fields plus the section table; each
array is one section (``int32`` for lengths, KB2 ids and batch
positions, ``float64`` for scores), and :func:`read_frame` hands them
back as zero-copy views under their field names.  A 500-query batch
against the 100k-entity ``yago_imdb`` benchmark index ships ~242k
column pairs per shard (two shards): 3,395,129 bytes for 3,394,384
bytes of arrays, and neither side builds a python object per pair.
The router checks a reply with :func:`evidence_of` before merging it;
a malformed one is the replica's fault, like any worker error.

Scores survive the trip bit-exactly: batch scores are the doubles' own
bytes, and single-query scores are ``repr``-round-trippable JSON
floats.
"""

from __future__ import annotations

import json
from typing import Any, BinaryIO

import numpy as np

from repro.kernels.interning import BatchEvidence
from repro.obs.recorder import RecorderSnapshot, Span
from repro.serving.format import FORMAT_VERSION, check_lists, read_sections, write_sections

__all__ = [
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "evidence_of",
    "read_frame",
    "snapshot_from_json",
    "snapshot_to_json",
    "write_frame",
]

MAX_FRAME_BYTES = 256 * 1024 * 1024
"""Upper bound on one frame's payload; a corrupt length prefix must
not make the reader allocate unbounded memory."""

FRAME_MAGIC = b"MINOANER-FRAME\x00" + bytes([FORMAT_VERSION])
"""First bytes of a sectioned frame's payload (a JSON one starts ``{``)."""


class ProtocolError(RuntimeError):
    """A malformed frame: bad length prefix, truncation, non-JSON or a
    bad section container; or a ``batch`` reply whose sections are not
    valid evidence."""


def write_frame(stream: BinaryIO, message: dict[str, Any]) -> None:
    """Serialise one message onto ``stream`` and flush it.

    A message without ndarray or bytes values is one JSON frame; one
    with them is a sectioned frame carrying each as a section.
    """
    arrays = {
        key: value for key, value in message.items() if isinstance(value, (np.ndarray, bytes))
    }
    if arrays:
        fields = {key: value for key, value in message.items() if key not in arrays}
        data = write_sections(FRAME_MAGIC, fields, arrays)
    else:
        data = json.dumps(message, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
    stream.write(b"%d\n%s\n" % (len(data), data))
    stream.flush()


def read_frame(stream: BinaryIO) -> dict[str, Any] | None:
    """Read one message from ``stream``; None on clean end-of-stream.

    A sectioned frame comes back as its JSON fields plus one read-only
    view per section (an ndarray, or a memoryview for bytes).  Raises
    :class:`ProtocolError` on a malformed length line, a frame truncated
    mid-payload, an oversized length, a non-JSON payload or a malformed
    section container.
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
        if data.startswith(FRAME_MAGIC):
            message, arrays = read_sections(memoryview(data)[:length], FRAME_MAGIC, "frame")
            message.update(arrays)
        else:
            message = json.loads(data[:length])
    except ValueError as error:
        raise ProtocolError(f"frame payload is not JSON or sections: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError(f"frame must be a JSON object, got {type(message).__name__}")
    return message


def evidence_of(reply: dict[str, Any], n_entities: int, id_space: int) -> BatchEvidence:
    """The :class:`BatchEvidence` of a ``batch`` reply, checked.

    Raises :class:`ProtocolError` unless every field is a section, the
    scores are ``float64`` and as many as their ids, there is one row
    per batch entity and one column per column node, and the lists pass
    :func:`~repro.serving.format.check_lists`: KB2 ids in
    ``[0, id_space)``, batch positions in ``[0, n_entities)`` and column
    nodes strictly ascending -- so a corrupt reply never reaches the
    merge as an ``IndexError`` or a wrong decision.
    """
    for field in BatchEvidence._fields:
        if not isinstance(reply.get(field), np.ndarray):
            raise ProtocolError(
                f"batch reply {field!r} is not an array section: {str(reply.get(field))[:64]!r}"
            )
    evidence = BatchEvidence(*(reply[field] for field in BatchEvidence._fields))
    try:
        for what, ids, scores in (
            ("row", evidence.row_ids, evidence.row_scores),
            ("col", evidence.col_ids, evidence.col_scores),
        ):
            if scores.dtype != np.float64 or len(scores) != len(ids):
                raise ValueError(
                    f"{len(ids)} {what}_ids and {len(scores)} {scores.dtype} {what}_scores"
                )
        check_lists(
            "row_ids", evidence.row_ids, id_space, lengths=evidence.row_lengths, rows=n_entities
        )
        check_lists(
            "col_ids", evidence.col_ids, n_entities, lengths=evidence.col_lengths,
            rows=len(evidence.col_nodes),
        )
        check_lists("col_nodes", evidence.col_nodes, id_space, ascending=True)
    except ValueError as error:
        raise ProtocolError(f"batch reply {error}") from None
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
