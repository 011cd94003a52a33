"""A shard-serving worker process: one engine, one frame loop.

``python -m repro.sharding SHARD_FILE [--config JSON]``
maps one per-shard index, wraps it in a
:class:`~repro.serving.engine.MatchEngine` and answers evidence
requests framed by :mod:`repro.sharding.protocol` on stdin/stdout
(stdout carries *only* frames; diagnostics go to stderr).

The worker is deliberately thin: it never runs the matching rules or
name evidence -- the router does, over the merged evidence -- so a
worker request is a pure function of its shard's frozen structures.
Deadlines arrive as ``budget_ms`` (the router's remaining budget at
send time) and expire into ``kind: "deadline"`` error responses; any
other exception becomes ``kind: "error"`` without killing the loop.

Cancellation is best-effort: the loop is single-threaded, so a
``{"cancel": id}`` frame only suppresses a request still queued behind
the one being processed (the router ignores stale responses anyway).
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import gc
import json
import sys
import time
from typing import Any, BinaryIO

from repro.core.config import config_from_dict
from repro.obs import Recorder
from repro.resilience.policy import Deadline, DeadlineExpired
from repro.serving.engine import MatchEngine
from repro.serving.index import ResolutionIndex
from repro.serving.io import entity_from_json
from repro.sharding.protocol import ProtocolError, read_frame, snapshot_to_json, write_frame

__all__ = ["ShardWorker", "keep_freed_memory", "main"]

M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, glibc's malloc.h
HEAP_MMAP_THRESHOLD = 32 << 20
"""Arrays up to this size come from the heap: the ceiling that glibc's
own adaptive threshold climbs to, set from the start."""
HEAP_TRIM_THRESHOLD = 1 << 30
"""Free memory at the top of a heap goes back to the OS only past this."""


@functools.cache
def keep_freed_memory() -> None:
    """Have glibc keep a batch's freed arrays for the next batch.

    By default glibc hands the top of its heap back to the OS once a
    few MB of it are free, so every batch faults its kernels' arrays
    back in: on a 500-query batch over two 50k-entity shards, ~14k page
    faults in the router and ~7k in each worker, about a sixth of the
    batch's wall time, at a cost per fault that varies with the host.
    The router and the worker processes, which answer batch
    after batch, call this once.  The single-process engine does not:
    on the live benchmark workload, where compaction runs beside the
    queries, the setting raised peak RSS by 25%.  A no-op where the C
    library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(M_MMAP_THRESHOLD, HEAP_MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD)


class ShardWorker:
    """Request handler over one shard's :class:`MatchEngine`.

    Usable in-process (the router's :class:`InlineReplica` and the
    property tests call :meth:`handle` directly, round-tripping
    messages through the frame codec) or as a subprocess via
    :meth:`serve` / :func:`main`.
    """

    def __init__(self, engine: MatchEngine):
        self.engine = engine
        index = engine.index
        info = index.shard_info or {}
        self.shard_index = int(info.get("index", 0))
        self.shard_count = int(info.get("count", 1))

    def describe(self) -> dict[str, Any]:
        """The ``hello`` payload: the shard's identity."""
        index = self.engine.index
        return {
            "shard": self.shard_index,
            "count": self.shard_count,
            "n2": index.n2,
            "tokens": len(index.postings),
            "kb": index.kb_name,
        }

    def handle(self, request: dict[str, Any]) -> dict[str, Any]:
        """Answer one decoded request message.

        Evidence responses carry ``service_ms``, the worker's own
        compute time for the request -- the part of a round trip that
        shrinks with the shard, free of wire and scheduling noise.  The
        shard-scaling benchmark reads it to separate per-shard work
        from fan-out overhead.
        """
        rid = request.get("id")
        op = request.get("op")
        started = time.perf_counter()
        try:
            if op == "hello":
                result = self.describe()
            elif op == "match":
                # Routers ship the purged token list they computed once
                # on the full index instead of the (larger) entity; the
                # entity form stays supported for direct callers.
                result = self.engine.match_evidence(
                    entity_from_json(request["entity"], "query")
                    if "entity" in request
                    else None,
                    probe=request.get("probe"),
                    deadline=self._deadline(request),
                    tokens=request.get("tokens"),
                    exclude=request.get("exclude"),
                    weights=request.get("weights"),
                )
            elif op == "batch":
                # The evidence arrays ride as sections of the reply frame.
                result = self.engine.batch_evidence(
                    [
                        entity_from_json(entity, f"query-{i}")
                        for i, entity in enumerate(request["entities"])
                    ],
                    deadline=self._deadline(request),
                )._asdict()
            elif op == "reload":
                # Zero-drop swap: adopt a freshly compacted shard file.
                # The router holds its drain gate while broadcasting, so
                # no evidence request is in flight; loading before the
                # old engine is dropped keeps the worker answerable if
                # the load raises (the router kills the replica then).
                result = self._reload(request)
            elif op == "stats":
                result = {
                    "stats": self.engine.stats(),
                    "snapshot": snapshot_to_json(self.engine.recorder.snapshot()),
                }
            elif op == "shutdown":
                result = {"bye": True}
            else:
                return {
                    "id": rid,
                    "ok": False,
                    "error": f"unknown op {op!r}",
                    "kind": "error",
                }
        except DeadlineExpired as error:
            return {"id": rid, "ok": False, "error": str(error), "kind": "deadline"}
        except Exception as error:  # noqa: BLE001 - the loop must survive
            return {
                "id": rid,
                "ok": False,
                "error": f"{type(error).__name__}: {error}",
                "kind": "error",
            }
        if op in ("match", "batch"):
            result["service_ms"] = (time.perf_counter() - started) * 1e3
        return {"id": rid, "ok": True, **result}

    def _reload(self, request: dict[str, Any]) -> dict[str, Any]:
        """Load the shard file named by ``request["path"]`` and flip the
        engine onto it, preserving config and recorder; returns the new
        ``hello`` payload so the router can sanity-check the identity."""
        old = self.engine
        index = ResolutionIndex.load(request["path"])
        self.engine = MatchEngine(index, old.config, recorder=old.recorder)
        info = index.shard_info or {}
        self.shard_index = int(info.get("index", 0))
        self.shard_count = int(info.get("count", 1))
        return self.describe()

    @staticmethod
    def _deadline(request: dict[str, Any]) -> Deadline | None:
        budget_ms = request.get("budget_ms")
        return Deadline.after_ms(budget_ms) if budget_ms is not None else None

    def serve(self, reader: BinaryIO, writer: BinaryIO) -> None:
        """Answer frames until end-of-stream or a ``shutdown`` request."""
        cancelled: set[Any] = set()
        while True:
            try:
                frame = read_frame(reader)
            except ProtocolError as error:
                print(f"shard {self.shard_index}: {error}", file=sys.stderr)
                return
            if frame is None:
                return
            if "cancel" in frame and "op" not in frame:
                cancelled.add(frame["cancel"])
                continue
            if frame.get("id") in cancelled:
                cancelled.discard(frame.get("id"))
                continue
            write_frame(writer, self.handle(frame))
            if frame.get("op") == "shutdown":
                return


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sharding",
        description="Serve shard evidence over stdin/stdout frames.",
    )
    parser.add_argument("shard", help="per-shard index file (columnar v3)")
    parser.add_argument(
        "--config",
        default=None,
        help="JSON config dict overriding the one baked into the shard",
    )
    args = parser.parse_args(argv)

    index = ResolutionIndex.load(args.shard)
    config = (
        config_from_dict(json.loads(args.config))
        if args.config is not None
        else index.config
    )
    engine = MatchEngine(index, config, recorder=Recorder())
    # The loaded index and engine are immortal for the process lifetime;
    # freezing them keeps the cyclic GC's full collections (triggered by
    # per-request JSON churn) from rescanning the whole object graph --
    # multi-ms tail pauses on large shards otherwise.
    gc.collect()
    gc.freeze()
    keep_freed_memory()
    ShardWorker(engine).serve(sys.stdin.buffer, sys.stdout.buffer)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
