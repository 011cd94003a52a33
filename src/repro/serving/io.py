"""JSONL wire format of the serving engine (see ``docs/serving.md``).

Requests (one JSON object per line)::

    {"uri": "q1", "pairs": [["label", "fat duck bray"], ["year", 1995]]}
    {"uri": "q2", "attributes": {"label": "eltham palace", "city": ["london"]}}

Either ``pairs`` (a list of ``[attribute, value]`` pairs, RDF-style
multi-valued) or ``attributes`` (a mapping of attribute to value or list
of values) describes the entity.  Values may be any JSON scalar --
strings, numbers, booleans -- and are coerced to strings at parse time;
nested objects and arrays are rejected with the offending line number.
``uri`` is optional and defaults to ``query-N`` where ``N`` is the
request's position among the *accepted* requests (blank lines do not
consume a position).

Responses (one JSON object per request line, in request order)::

    {"query": "q1", "match": "http://kb2/r17", "rule": "R1",
     "score": null, "candidates": 12, "cached": false, "latency_ms": 0.41}

``match`` is null when no rule matched the query.  ``score`` is the
producing rule's score; rule R1's score is by definition ``+inf`` and
serialises as null (JSON has no Infinity).  Any *other* non-finite
score is an engine invariant violation and raises instead of being
masked as null.  ``degraded`` is true when the answer is a
deadline-degraded name-evidence-only decision (see
``docs/resilience.md``).  Every response carries a ``trace_id`` naming
the lookup within the engine's trace; when provenance sampling is on
(``MinoanERConfig.provenance_sample_rate`` / ``--provenance``) a
sampled response additionally carries a ``provenance`` object with the
decision's audit record (see ``docs/serving.md``).

Error records: the lenient reader (:func:`iter_requests`, used by the
``serve`` subcommand) never aborts the stream on one bad line -- it
yields a :class:`RequestError` carrying the raw line number, which the
server writes back as::

    {"error": "bad request on line 3: ...", "line": 3}

Blank lines are still silently skipped (they are separators, not
errors); malformed JSON, nested/null/non-finite values (``NaN`` and
``Infinity`` literals parse as floats but cannot tokenize), and
oversized lines (> :data:`MAX_REQUEST_LINE_BYTES`) become error
records.  The strict :func:`read_requests` (batch tooling) raises on
the first error instead.

Overload records: a request line may carry an optional ``"source"``
string labelling its traffic source; with admission control configured
(``--max-pending`` / ``--quota-qps``, see ``docs/resilience.md``) an
over-limit request is *shed* -- answered in stream order with an
explicit error record instead of a decision, never silently dropped::

    {"error": "source 'tenant-a' over quota (100.0/s)", "shed": true,
     "reason": "quota", "query": "q7", "line": 12}
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, TextIO

from repro.kb.entity import EntityDescription
from repro.resilience.faults import inject
from repro.serving.engine import MatchDecision

_SCALARS = (str, int, float, bool)

MAX_REQUEST_LINE_BYTES = 1_000_000
"""Default per-line size guard of :func:`iter_requests`: a request line
whose UTF-8 encoding (line terminator excluded) is longer than this in
*bytes* is rejected without being parsed, so one runaway producer
cannot balloon the server's memory."""


CONTROL_OPS = frozenset({"upsert", "delete", "compact", "reload"})
"""In-band control operations the live serving loop understands."""


@dataclass(frozen=True)
class ControlRequest:
    """One in-band control record of a live serving stream.

    A request line shaped ``{"control": "upsert", "entity": {...}}``
    (or ``delete``/``compact``/``reload``) mutates the live index
    instead of querying it (see ``docs/live_index.md``).  Control
    records do not consume an accepted-query position, so positional
    ``query-N`` URIs stay contiguous around them.

    ``entity`` is set for ``upsert`` (the full description), ``uri``
    for ``delete``; ``path`` optionally names the index file for
    ``compact``/``reload``.
    """

    op: str
    line: int
    entity: EntityDescription | None = None
    uri: str | None = None
    path: str | None = None


def control_from_json(payload: dict[str, Any], line: int) -> ControlRequest:
    """Parse one ``{"control": ...}`` record (``ValueError`` on bad shape)."""
    op = payload["control"]
    if op not in CONTROL_OPS:
        raise ValueError(
            f"unknown control operation {op!r}; expected one of "
            f"{sorted(CONTROL_OPS)}"
        )
    if op == "upsert":
        if "entity" not in payload:
            raise ValueError("control 'upsert' needs an 'entity' object")
        entity = entity_from_json(payload["entity"], default_uri="")
        if not entity.uri:
            raise ValueError("control 'upsert' entity needs a non-empty 'uri'")
        return ControlRequest(op, line, entity=entity)
    if op == "delete":
        uri = payload.get("uri")
        if not isinstance(uri, str) or not uri:
            raise ValueError("control 'delete' needs a non-empty string 'uri'")
        return ControlRequest(op, line, uri=uri)
    path = payload.get("path")
    if path is not None and not isinstance(path, str):
        raise ValueError(f"control {op!r} 'path' must be a string, got {path!r}")
    return ControlRequest(op, line, path=path)


@dataclass(frozen=True)
class QueryRequest:
    """One accepted query line with its wire envelope, from
    :func:`iter_requests` in ``envelopes=True`` mode.

    ``source`` is the optional ``"source"`` key of the request line --
    a free-form traffic label (tenant, pipeline, client) that admission
    control charges per-source quotas against (``docs/resilience.md``).
    The entity itself never carries it: descriptions are content, the
    envelope is routing.
    """

    entity: EntityDescription
    line: int
    source: str | None = None


@dataclass(frozen=True)
class RequestError:
    """One rejected request line of a lenient :func:`iter_requests` scan.

    ``line`` is the raw 1-based line number (blank lines included, for
    editor navigation); ``error`` is the human-readable reason.
    """

    line: int
    error: str

    def to_json(self) -> dict[str, Any]:
        """The JSONL error record the server emits for this line."""
        return {"error": self.error, "line": self.line}


def _coerce_scalar(value: Any, role: str) -> str:
    """``value`` as a string, or ``ValueError`` for null, nested
    structures, and non-finite numbers (the tokenizer only understands
    flat finite scalars)."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return json.dumps(value)
    if isinstance(value, (int, float)):
        # json.loads accepts the non-standard NaN/Infinity literals and
        # hands back non-finite floats; they have no token form.
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{role} must be finite, got {value!r}")
        return str(value)
    raise ValueError(
        f"{role} must be a JSON scalar (string, number, or boolean), "
        f"got {value!r}"
    )


def entity_from_json(payload: dict[str, Any], default_uri: str) -> EntityDescription:
    """Build an :class:`~repro.kb.entity.EntityDescription` from one
    decoded request object.

    Scalar attribute names and values are coerced to strings (so
    ``["year", 1995]`` and ``{"year": 1995}`` both tokenize as
    ``"1995"``); nested objects/arrays and nulls raise ``ValueError``.

    >>> entity_from_json({"pairs": [["label", "Bray"]]}, "query-0").uri
    'query-0'
    >>> entity_from_json({"uri": "q", "attributes": {"a": ["1", 2]}}, "-").pairs
    (('a', '1'), ('a', '2'))
    """
    if not isinstance(payload, dict):
        raise ValueError(f"request must be a JSON object, got {type(payload).__name__}")
    uri = payload.get("uri", default_uri)
    if "pairs" in payload:
        raw_pairs = payload["pairs"]
        pairs = []
        for item in raw_pairs:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise ValueError(f"each pair must be [attribute, value], got {item!r}")
            pairs.append(
                (
                    _coerce_scalar(item[0], "pair attribute"),
                    _coerce_scalar(item[1], "pair value"),
                )
            )
        return EntityDescription(uri, pairs)
    if "attributes" in payload:
        mapping = payload["attributes"]
        if not isinstance(mapping, dict):
            raise ValueError(
                f"'attributes' must be an object, got {type(mapping).__name__}"
            )
        pairs = []
        for attribute, value in mapping.items():
            if isinstance(value, list):
                pairs.extend(
                    (attribute, _coerce_scalar(v, f"value of {attribute!r}"))
                    for v in value
                )
            else:
                pairs.append(
                    (attribute, _coerce_scalar(value, f"value of {attribute!r}"))
                )
        return EntityDescription(uri, pairs)
    raise ValueError("request needs a 'pairs' list or an 'attributes' object")


def entity_to_json(entity: EntityDescription) -> dict[str, Any]:
    """The request object that round-trips through :func:`entity_from_json`."""
    return {"uri": entity.uri, "pairs": [list(pair) for pair in entity.pairs]}


def decision_to_json(decision: MatchDecision) -> dict[str, Any]:
    """Serialise a decision to the response object.

    Rule R1's score is ``+inf`` by definition and becomes null (JSON
    has no Infinity); any other non-finite score (``-inf`` sentinels,
    NaN) indicates an engine bug and raises ``ValueError`` instead of
    being silently masked.  Ids are coerced to built-in ``int`` (the
    kernels may hand back ``numpy.int64``).
    """
    score = decision.score
    if score is not None and not math.isfinite(score):
        if decision.rule == "R1" and score == math.inf:
            score = None
        else:
            raise ValueError(
                f"non-finite score {score!r} from rule {decision.rule!r} for "
                f"query {decision.query_uri!r} cannot be serialised; only "
                f"rule R1 produces an infinite (+inf) score by design"
            )
    payload = {
        "query": decision.query_uri,
        "match": decision.kb2_uri,
        "match_id": int(decision.kb2_id) if decision.kb2_id is not None else None,
        "rule": decision.rule,
        "score": float(score) if score is not None else None,
        "candidates": int(decision.candidates),
        "degraded": decision.degraded,
        "cached": decision.cached,
        "latency_ms": round(decision.latency_ms, 3),
        "trace_id": decision.trace_id or None,
    }
    if decision.provenance is not None:
        payload["provenance"] = decision.provenance.to_json()
    return payload


def iter_requests(
    stream: TextIO,
    max_line_bytes: int = MAX_REQUEST_LINE_BYTES,
    recorder=None,
    envelopes: bool = False,
) -> Iterator[EntityDescription | QueryRequest | ControlRequest | RequestError]:
    """Lenient JSONL scan: one item per non-blank line, errors included.

    Well-formed requests come out as
    :class:`~repro.kb.entity.EntityDescription`; lines carrying a
    ``"control"`` key come out as :class:`ControlRequest` (live-index
    mutations, see ``docs/live_index.md``); malformed, oversized, and
    fault-injected (``io:read_requests``) lines come out as
    :class:`RequestError` and the scan *continues*, so one garbage
    producer cannot take down the stream.  Blank lines are separators
    and yield nothing.

    With ``envelopes=True`` (the server's mode) accepted queries come
    out as :class:`QueryRequest` instead, carrying the line's optional
    ``"source"`` traffic label for per-source admission quotas; plain
    mode ignores the key, so the wire format is one and the same.

    Default URIs are positional over *accepted* requests: the N-th
    non-blank, well-formed request without a ``uri`` gets ``query-N``
    (1-based), so identifiers stay contiguous regardless of blank and
    rejected lines.  Every rejection is counted
    ``serving.request_errors`` on ``recorder`` (default: the ambient
    one; the server passes its engine's so :meth:`MatchEngine.stats`
    sees the count either way).
    """
    if recorder is None:
        from repro.obs import current_recorder

        recorder = current_recorder()
    accepted = 0
    for number, line in enumerate(stream, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            inject("io:read_requests")
            # Measure actual UTF-8 bytes, excluding the line terminator:
            # ``len(line)`` counts characters, which understates a
            # multi-byte payload by up to 4x against the byte budget.
            line_bytes = len(line.rstrip("\r\n").encode("utf-8"))
            if line_bytes > max_line_bytes:
                raise ValueError(
                    f"request line exceeds {max_line_bytes} bytes "
                    f"({line_bytes} bytes)"
                )
            payload = json.loads(stripped)
            if isinstance(payload, dict) and "control" in payload:
                yield control_from_json(payload, number)
                continue
            source = None
            if envelopes and isinstance(payload, dict):
                source = payload.get("source")
                if source is not None and not isinstance(source, str):
                    raise ValueError(
                        f"'source' must be a string, got {source!r}"
                    )
            entity = entity_from_json(payload, default_uri=f"query-{accepted + 1}")
        except (json.JSONDecodeError, ValueError, RuntimeError) as error:
            recorder.count("serving.request_errors")
            yield RequestError(number, f"bad request on line {number}: {error}")
            continue
        accepted += 1
        if envelopes:
            yield QueryRequest(entity, number, source=source)
        else:
            yield entity


def read_requests(stream: TextIO) -> Iterator[EntityDescription]:
    """Strict JSONL parse: the lenient scan with errors promoted to
    ``ValueError`` (raised on the first bad line, naming it).
    """
    for item in iter_requests(stream):
        if isinstance(item, RequestError):
            raise ValueError(item.error)
        if isinstance(item, ControlRequest):
            raise ValueError(
                f"control record on line {item.line}: batch tooling reads "
                f"plain query streams (control ops are for 'serve')"
            )
        yield item


def write_decisions(decisions: Iterable[MatchDecision], stream: TextIO) -> None:
    """Write one response line per decision, flushing after each batch."""
    for decision in decisions:
        stream.write(json.dumps(decision_to_json(decision)) + "\n")
    stream.flush()
