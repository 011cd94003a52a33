"""Exporters: one consistent snapshot of a recorder, two formats.

``to_json`` produces the machine-readable trace consumed by
``--trace out.json`` (and asserted by CI's serving-smoke job);
``to_logfmt`` produces one ``key=value`` line per span/metric for
grepping and log shipping.  Both read the recorder through its locked
snapshot methods, so exporting while other threads record is safe.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.obs.recorder import Recorder

TRACE_FORMATS = ("json", "logfmt")
"""Accepted values of the ``--trace-format`` CLI flag."""

RESILIENCE_COUNTERS = (
    "retry.attempts",
    "stage.skipped",
    "deadline.expired",
    "breaker.trips",
    "serving.request_errors",
    "serving.degraded",
)
"""The resilience counters summarised by :func:`resilience_summary`
(always present there, zero when nothing fired -- see
``docs/resilience.md``)."""

_FAULT_PREFIX = "faults.injected."


def resilience_summary(recorder: Recorder) -> dict:
    """The recorder's resilience behaviour as one flat summary.

    Every :data:`RESILIENCE_COUNTERS` key is present (0.0 when it never
    fired), ``faults.injected`` maps each injection site to its fire
    count, and ``breaker.state`` carries the latest gauge value when a
    circuit breaker reported one.
    """
    counters = recorder.counters()
    summary: dict = {name: counters.get(name, 0.0) for name in RESILIENCE_COUNTERS}
    summary["faults.injected"] = {
        name[len(_FAULT_PREFIX):]: value
        for name, value in sorted(counters.items())
        if name.startswith(_FAULT_PREFIX)
    }
    gauges = recorder.gauges()
    if "breaker.state" in gauges:
        summary["breaker.state"] = gauges["breaker.state"]
    return summary


def trace_payload(recorder: Recorder) -> dict:
    """The exported trace as a plain dict (the JSON document)."""
    return {
        "trace_id": recorder.trace_id,
        "spans": [span.as_dict() for span in recorder.spans()],
        "counters": recorder.counters(),
        "gauges": recorder.gauges(),
        "histograms": {
            name: snapshot.as_dict()
            for name, snapshot in recorder.histograms().items()
        },
        "resilience": resilience_summary(recorder),
    }


def to_json(recorder: Recorder, indent: int | None = 2) -> str:
    """Serialise the recorder's snapshot as a JSON document."""
    return json.dumps(trace_payload(recorder), indent=indent, sort_keys=False)


_LOGFMT_UNSAFE = (" ", '"', "=", "\\", "\n", "\r", "\t")


def _logfmt_value(value: object) -> str:
    """Render one logfmt value, quoting whenever the raw text would be
    ambiguous to split back apart.

    Anything containing whitespace (including newlines/tabs), quotes,
    ``=``, or backslashes -- or the empty string -- is emitted as a JSON
    string literal, whose escapes round-trip through ``json.loads``.
    """
    if isinstance(value, float):
        return format(value, ".9g")
    text = str(value)
    if text == "" or any(ch in text for ch in _LOGFMT_UNSAFE):
        return json.dumps(text)
    return text


def _logfmt_line(kind: str, **fields: object) -> str:
    parts = [kind] + [
        f"{key}={_logfmt_value(value)}" for key, value in fields.items()
    ]
    return " ".join(parts)


def to_logfmt(recorder: Recorder) -> str:
    """One logfmt line per span, counter, gauge, and histogram.

    Span lines carry name/id/parent/depth/seconds/status plus any span
    attributes (prefixed ``attr.``); metric lines carry name and value
    (histograms expand their snapshot fields).
    """
    lines: list[str] = [_logfmt_line("trace", id=recorder.trace_id)]
    for span in recorder.spans():
        fields: dict[str, object] = {
            "name": span.name,
            "id": span.span_id,
            "parent": "" if span.parent_id is None else span.parent_id,
            "depth": span.depth,
            "start_s": span.start,
            "seconds": span.seconds,
            "status": span.status,
        }
        for key, value in span.attributes.items():
            fields[f"attr.{key}"] = value
        lines.append(_logfmt_line("span", **fields))
    for name, value in sorted(recorder.counters().items()):
        lines.append(_logfmt_line("counter", name=name, value=value))
    for name, value in sorted(recorder.gauges().items()):
        lines.append(_logfmt_line("gauge", name=name, value=value))
    for name, snapshot in sorted(recorder.histograms().items()):
        lines.append(_logfmt_line("histogram", name=name, **snapshot.as_dict()))
    summary = resilience_summary(recorder)
    fired = summary.pop("faults.injected")
    summary["faults.injected"] = sum(fired.values())
    lines.append(_logfmt_line("resilience", **summary))
    return "\n".join(lines) + ("\n" if lines else "")


def write_trace(
    recorder: Recorder, path: str | Path, format: str = "json"
) -> None:
    """Write the recorder's snapshot to ``path`` in the given format.

    The conventional path ``-`` writes to stderr instead of a file, so
    smoke runs can capture a trace without a temp file (stderr, not
    stdout, because ``serve`` owns stdout for JSONL responses).
    """
    if format not in TRACE_FORMATS:
        raise ValueError(
            f"trace format must be one of {TRACE_FORMATS}, got {format!r}"
        )
    text = to_json(recorder) + "\n" if format == "json" else to_logfmt(recorder)
    if str(path) == "-":
        sys.stderr.write(text)
        sys.stderr.flush()
        return
    Path(path).write_text(text, encoding="utf-8")
