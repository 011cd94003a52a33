"""In-memory spans around the public functions of each layer.

Nothing under ``src/`` knows about this file.  :meth:`Tracer.install`
replaces the functions named in :data:`TARGETS` by wrappers that record
one span per call -- ``[name, layer, start_ns, end_ns, parent, op]`` --
and :meth:`Tracer.uninstall` puts the originals back, so the untraced
pass runs the program exactly as shipped.  A target whose module, class
or attribute no longer exists is skipped and listed in
:attr:`Tracer.skipped`; a refactor that moves a function costs that
function's span, never the run.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.  ``op`` is the
client operation (query, edit, resolve) in flight when the span began,
so the spans of one request share an identifier.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

# (span name, layer, module, class or None, attribute)
TARGETS: tuple[tuple[str, str, str, str | None, str], ...] = (
    ("kb.tokenise", "kb", "repro.kb.knowledge_base", "KnowledgeBase", "__init__"),
    ("kb.statistics", "kb", "repro.kb.statistics", "KBStatistics", "__init__"),
    ("pipeline.statistics", "pipeline", "repro.core.pipeline", "MinoanER", "build_statistics"),
    ("pipeline.blocking", "pipeline", "repro.core.pipeline", "MinoanER", "build_blocks"),
    ("pipeline.graph", "pipeline", "repro.core.pipeline", None, "build_blocking_graph"),
    ("pipeline.matching", "pipeline", "repro.core.matcher", "NonIterativeMatcher", "match"),
    ("blocking.names", "blocking", "repro.core.pipeline", None, "name_blocks"),
    ("blocking.tokens", "blocking", "repro.core.pipeline", None, "token_blocks"),
    ("blocking.purge", "blocking", "repro.core.pipeline", None, "purge_blocks"),
    ("blocking.purge", "blocking", "repro.serving.engine", None, "purge_blocks"),
    ("index.postings", "index", "repro.serving.engine", None, "purging_threshold_from_counts"),
    ("graph.assemble", "graph", "repro.graph.blocking_graph", "DisjunctiveBlockingGraph", "__init__"),
    ("kernels.intern", "kernels", "repro.kernels.interning", "InternedBlocks", "from_blocks"),
    ("kernels.retained_edges", "kernels", "repro.kernels", None, "retained_edge_arrays"),
    ("kernels.retained_edges", "kernels", "repro.serving.engine", None, "retained_edge_arrays"),
    *(
        (span, "kernels", f"repro.kernels.{backend}_backend", None, name)
        for backend in ("numpy", "python")
        for span, name in (
            ("kernels.value_topk", "value_topk"),
            ("kernels.gamma_topk", "gamma_topk"),
            ("kernels.row_accumulate", "accumulate_row"),
            ("kernels.row_select", "select_row"),
            ("kernels.row_evidence", "row_evidence"),
        )
    ),
    ("index.build", "index", "repro.serving.index", "ResolutionIndex", "build"),
    ("index.save", "index", "repro.serving.index", "ResolutionIndex", "save"),
    ("index.load", "index", "repro.serving.index", "ResolutionIndex", "load"),
    ("index.postings", "index", "repro.serving.format", "MappedPostings", "__getitem__"),
    ("index.postings", "index", "repro.serving.format", "MappedPostings", "__contains__"),
    ("index.weights", "index", "repro.serving.format", "MappedWeights", "__getitem__"),
    ("cache.probe", "cache", "repro.serving.engine", None, "entity_fingerprint"),
    ("cache.probe", "cache", "repro.serving.cache", "LRUCache", "get"),
    ("cache.put", "cache", "repro.serving.cache", "LRUCache", "put"),
    ("engine.match", "engine", "repro.serving.engine", "MatchEngine", "match"),
    ("engine.match_batch", "engine", "repro.serving.engine", "MatchEngine", "match_batch"),
    ("engine.value_tokens", "engine", "repro.serving.engine", "MatchEngine", "value_tokens"),
    ("engine.batch_evidence", "engine", "repro.serving.engine", "MatchEngine", "batch_evidence"),
    ("rules.single", "rules", "repro.serving.engine", None, "apply_single_rules"),
    ("rules.single", "rules", "repro.sharding.merge", None, "apply_single_rules"),
    ("io.encode", "io", "repro.serving.io", None, "decision_to_json"),
    ("live.match", "live", "repro.serving.live", "LiveServingMixin", "match"),
    ("live.match_batch", "live", "repro.serving.live", "LiveServingMixin", "match_batch"),
    ("live.upsert", "live", "repro.serving.live", "LiveServingMixin", "upsert"),
    ("live.delete", "live", "repro.serving.live", "LiveServingMixin", "delete"),
    ("live.compact", "live", "repro.serving.live", "LiveServingMixin", "compact"),
    ("live.compact_build", "live", "repro.serving.live", "LiveIndex", "compact"),
    ("live.posting_merge", "live", "repro.serving.live", "_LivePostings", "__getitem__"),
    ("live.posting_merge", "live", "repro.serving.live", "_LivePostings", "__contains__"),
    ("live.weights", "live", "repro.serving.live", "_LiveWeights", "__getitem__"),
    ("ledger.append", "ledger", "repro.serving.live", "UpsertLedger", "append_upsert"),
    ("ledger.append", "ledger", "repro.serving.live", "UpsertLedger", "append_delete"),
    ("planner.split", "planner", "repro.sharding.planner", "ShardPlanner", "write"),
    ("router.spawn", "router", "repro.sharding.router", "ShardRouter", "spawn"),
    ("protocol.encode", "protocol", "repro.sharding.router", None, "write_frame"),
    ("merge.single", "merge", "repro.sharding.router", None, "merge_single_evidence"),
    ("merge.batch", "merge", "repro.sharding.router", None, "merge_batch_evidence"),
)


def _row_counts(args: tuple, result: Any) -> dict[str, int]:
    """Work at the row kernel's boundary: blocks in, posting ids in, candidates out."""
    weighted = args[0]
    return {
        "tokens": len(weighted),
        "posting_ids": sum(len(ids) for _, ids in weighted),
        "candidates": len(result[0]),
    }


COUNTERS: dict[str, Callable[[tuple, Any], dict[str, int]]] = {
    "kernels.row_accumulate": _row_counts,
}
"""Span name -> counts read off the call's arguments and result."""


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.skipped: list[str] = []
        self.wrapped: set[str] = set()  # span names with at least one target in place
        self.op = 0
        self._local = threading.local()
        self._installed: list[tuple[Any, str, Any]] = []

    # -- wrapping ------------------------------------------------------
    def _wrap(self, function: Callable, name: str, layer: str) -> Callable:
        spans = self.spans
        local = self._local
        clock = time.perf_counter_ns
        counter = COUNTERS.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, layer, 0, 0, stack[-1] if stack else None, self.op]
            spans.append(span)
            stack.append(span)
            span[2] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, result).items():
                    counts[key] += value
            return result

        traced.__wrapped__ = function
        return traced

    def install(self) -> None:
        for name, layer, module_name, class_name, attribute in TARGETS:
            where = f"{module_name}.{class_name + '.' if class_name else ''}{attribute}"
            try:
                owner = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                original = owner.__dict__[attribute] if class_name else getattr(owner, attribute)
            except (ImportError, AttributeError, KeyError):
                self.skipped.append(where)
                continue
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(self._wrap(original.__func__, name, layer))
            else:
                wrapped = self._wrap(original, name, layer)
            setattr(owner, attribute, wrapped)
            self._installed.append((owner, attribute, original))
            self.wrapped.add(name)

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reading -------------------------------------------------------
    def mark(self) -> int:
        """Position in the span list; pass two marks to :meth:`by_name`."""
        return len(self.spans)

    def _self_times(self, start: int, end: int) -> list[tuple[str, str, int, int]]:
        """``(name, layer, duration_ns, self_ns)`` of spans ``[start, end)``."""
        window = self.spans[start:end]
        children: dict[int, int] = defaultdict(int)
        for span in window:
            if span[4] is not None:
                children[id(span[4])] += span[3] - span[2]
        return [
            (span[0], span[1], span[3] - span[2], span[3] - span[2] - children[id(span)])
            for span in window
        ]

    def by_name(self, start: int, end: int) -> dict[str, dict[str, float]]:
        """Per span name over a window: calls, and self and total µs summed."""
        out: dict[str, dict[str, float]] = {}
        for name, _, duration, own in self._self_times(start, end):
            row = out.setdefault(name, {"calls": 0, "self_us": 0.0, "total_us": 0.0})
            row["calls"] += 1
            row["self_us"] += own / 1e3
            row["total_us"] += duration / 1e3
        return out

    def by_layer(self) -> dict[str, dict[str, float]]:
        """Per layer over the whole trace: calls and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for _, layer, _, own in self._self_times(0, len(self.spans)):
            row = out.setdefault(layer, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += own / 1e9
        return out

    def write(self, path: Path, header: dict[str, Any]) -> None:
        """Spans as ``[name, layer, start_ns, end_ns, parent index, op]`` rows."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        rows = [
            [s[0], s[1], s[2], s[3], index[id(s[4])] if s[4] is not None else -1, s[5]]
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    **header,
                    "columns": ["name", "layer", "start_ns", "end_ns", "parent", "op"],
                    "layers": self.by_layer(),
                    "skipped_probes": self.skipped,
                    "spans": rows,
                },
                handle,
            )
