"""Scatter/gather serving over shard workers, bit-identical to one engine.

:class:`ShardRouter` *is a* :class:`~repro.serving.engine.MatchEngine`
over the full (unsharded) index -- memory-mapped, so its pages are
shared with any local worker mapping the same file.
Everything query-side and cheap runs in the router exactly as in the
single-process engine: name evidence (alpha), batch statistics,
neighbor evidence (gamma), the matching rules, caching, deadlines and
provenance.  Only the expensive *value* evidence (the ``beta`` rows
over the token postings) is scattered to the shard workers, whose
disjoint posting partitions + global weights make every per-pair score
bit-identical to the unsharded one; the router re-ranks the merged
evidence with :mod:`repro.serving.merge` and the rules replay through
the engine's own code path.

Per shard, R replicas serve interchangeably.  A request goes to one
replica (round-robin); if no answer arrives within the hedge delay --
an adaptive p95 of the shard's recent latencies -- a backup request is
*hedged* to the next replica and the first answer wins (the loser is
cancelled best-effort).  Replica faults feed per-replica circuit
breakers (:mod:`repro.resilience.breaker`, opening after three
consecutive failures); what happens when a whole shard is
unreachable follows ``config.failure_mode``:

* ``fail_fast`` -- the query raises :class:`ShardFailure`;
* ``retry`` -- the scatter is retried per ``config.retry_*``, then
  raises;
* ``degrade`` -- the survivors' evidence is merged anyway and every
  affected decision is marked ``degraded`` (the existing wire format),
  with ``on_shard_error`` fired once per healthy->down transition so
  the stream can carry an error record.

Deadlines decay across the fan-out: each worker request carries the
router deadline's *remaining* budget as ``budget_ms``, so a slow shard
cannot spend time a later pipeline stage no longer has.
"""

from __future__ import annotations

import io
import json
import queue
import subprocess
import sys
import threading
import time
from collections import defaultdict, deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro.core.config import MinoanERConfig, config_to_dict
from repro.graph.blocking_graph import CandidateList
from repro.kb.entity import EntityDescription
from repro.kb.knowledge_base import KnowledgeBase
from repro.obs import Recorder
from repro.obs.recorder import percentile
from repro.resilience.admission import RetryBudget
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import FaultPlan, current_faults
from repro.resilience.policy import (
    RETRY_BASE_DELAY_S,
    Deadline,
    DeadlineExpired,
    RetryPolicy,
)
from repro.resilience.supervisor import ReplicaSupervisor
from repro.serving.cache import LRUCache
from repro.serving.engine import MatchEngine
from repro.serving.index import ResolutionIndex
from repro.serving.io import entity_to_json
from repro.serving.live import LiveServingMixin
from repro.serving.merge import merge_batch_evidence, merge_single_evidence
from repro.sharding.planner import ShardPlanner, shard_paths
from repro.sharding.protocol import (
    ProtocolError,
    evidence_of,
    read_frame,
    snapshot_from_json,
    write_frame,
)
from repro.sharding.worker import ShardWorker, keep_freed_memory

__all__ = [
    "InlineReplica",
    "LiveShardRouter",
    "ProcessReplica",
    "ShardFailure",
    "ShardRouter",
]

DEFAULT_HEDGE_DELAY_S = 0.05
"""Hedge delay before the adaptive p95 has enough samples."""

HEDGE_MIN_SAMPLES = 8
"""Latency observations a shard needs before its p95 drives hedging."""

HEDGE_WINDOW = 128
"""Recent per-shard, per-op latencies kept for the adaptive hedge delay."""


class ShardFailure(RuntimeError):
    """A shard request failed on every replica the router could try."""


class ProcessReplica:
    """One worker subprocess speaking the frame protocol over pipes.

    A dedicated reader thread demultiplexes responses to per-request
    sink queues by ``id``, so hedged requests to sibling replicas can
    share one sink and race.  All messages a replica delivers have the
    shape ``("ok", replica, frame)`` or ``("err", replica, error)``;
    once the process dies, every pending and future request fails fast
    with the terminal error.
    """

    def __init__(
        self,
        path: str | Path,
        shard: int,
        config_json: str | None = None,
    ):
        argv = [sys.executable, "-m", "repro.sharding", str(path)]
        if config_json is not None:
            argv += ["--config", config_json]
        self.shard = shard
        self.breaker: CircuitBreaker | None = None
        self.proc = subprocess.Popen(  # noqa: S603 - argv is our own module
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        self._lock = threading.Lock()
        self._pending: dict[int, "queue.Queue"] = {}
        self._next_rid = 0
        self._dead: Exception | None = None
        self._reader = threading.Thread(
            target=self._read_loop, name=f"shard-{shard}-reader", daemon=True
        )
        self._reader.start()

    @property
    def alive(self) -> bool:
        return self._dead is None and self.proc.poll() is None

    def send(self, op: str, payload: dict[str, Any], sink: "queue.Queue") -> int:
        """Dispatch one request; its response will arrive on ``sink``."""
        with self._lock:
            if self._dead is not None:
                raise ShardFailure(f"shard {self.shard} worker is down: {self._dead}")
            self._next_rid += 1
            rid = self._next_rid
            self._pending[rid] = sink
            try:
                write_frame(self.proc.stdin, {"id": rid, "op": op, **payload})
            except Exception as error:
                self._pending.pop(rid, None)
                raise ShardFailure(
                    f"shard {self.shard} worker write failed: {error}"
                ) from error
        return rid

    def cancel(self, rid: int) -> None:
        """Forget a request; best-effort tell the worker to skip it."""
        with self._lock:
            self._pending.pop(rid, None)
            if self._dead is None:
                try:
                    write_frame(self.proc.stdin, {"cancel": rid})
                except Exception:
                    pass

    def request(
        self, op: str, payload: dict[str, Any] | None = None, timeout: float = 30.0
    ) -> dict[str, Any]:
        """Synchronous round trip; raises :class:`ShardFailure` on error."""
        sink: queue.Queue = queue.Queue()
        rid = self.send(op, payload or {}, sink)
        try:
            kind, _, body = sink.get(timeout=timeout)
        except queue.Empty:
            self.cancel(rid)
            raise ShardFailure(
                f"shard {self.shard} worker timed out on {op!r}"
            ) from None
        if kind == "err":
            raise ShardFailure(f"shard {self.shard}: {body}")
        if not body.get("ok"):
            raise ShardFailure(f"shard {self.shard}: {body.get('error', 'unknown error')}")
        return body

    def shutdown(self, timeout: float = 5.0) -> None:
        """Polite stop: shutdown op, close stdin, wait, then kill."""
        try:
            self.request("shutdown", timeout=timeout)
        except Exception:
            pass
        try:
            self.proc.stdin.close()
        except Exception:
            pass
        try:
            self.proc.wait(timeout=timeout)
        except Exception:
            self.kill()

    def kill(self) -> None:
        try:
            self.proc.kill()
            self.proc.wait(timeout=5.0)
        except Exception:
            pass

    def _read_loop(self) -> None:
        try:
            while True:
                frame = read_frame(self.proc.stdout)
                if frame is None:
                    break
                sink = None
                with self._lock:
                    sink = self._pending.pop(frame.get("id"), None)
                if sink is not None:
                    sink.put(("ok", self, frame))
        except Exception as error:
            self._mark_dead(error)
            return
        self._mark_dead(RuntimeError(f"shard {self.shard} worker exited"))

    def _mark_dead(self, error: Exception) -> None:
        with self._lock:
            if self._dead is not None:
                return
            self._dead = error
            pending = list(self._pending.values())
            self._pending.clear()
        for sink in pending:
            sink.put(("err", self, error))

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return f"ProcessReplica(shard={self.shard}, pid={self.proc.pid}, {state})"


def _over_the_wire(message: dict[str, Any]) -> dict[str, Any]:
    """``message`` as the far end of a pipe reads it."""
    buffer = io.BytesIO()
    write_frame(buffer, message)
    buffer.seek(0)
    return read_frame(buffer)


class InlineReplica:
    """An in-process replica over a :class:`ShardWorker`, for tests.

    Requests and responses still round-trip through the frame codec, so
    the inline path decodes the very bytes a :class:`ProcessReplica`
    reads without subprocess overhead -- the property tests run
    hundreds of sharded queries through it.
    """

    def __init__(self, worker: ShardWorker, shard: int | None = None):
        self.worker = worker
        self.shard = worker.shard_index if shard is None else shard
        self.breaker: CircuitBreaker | None = None
        self._lock = threading.Lock()
        self._next_rid = 0

    @property
    def alive(self) -> bool:
        return True

    def send(self, op: str, payload: dict[str, Any], sink: "queue.Queue") -> int:
        with self._lock:
            self._next_rid += 1
            rid = self._next_rid
        response = self.worker.handle(_over_the_wire({"id": rid, "op": op, **payload}))
        sink.put(("ok", self, _over_the_wire(response)))
        return rid

    def cancel(self, rid: int) -> None:
        pass

    def request(
        self, op: str, payload: dict[str, Any] | None = None, timeout: float = 30.0
    ) -> dict[str, Any]:
        sink: queue.Queue = queue.Queue()
        self.send(op, payload or {}, sink)
        _, _, body = sink.get_nowait()
        if not body.get("ok"):
            raise ShardFailure(f"shard {self.shard}: {body.get('error', 'unknown error')}")
        return body

    def shutdown(self, timeout: float = 5.0) -> None:
        pass

    def kill(self) -> None:
        pass

    def __repr__(self) -> str:
        return f"InlineReplica(shard={self.shard})"


class ShardRouter(MatchEngine):
    """A :class:`MatchEngine` whose value evidence is scattered to shards.

    Parameters
    ----------
    index:
        The *full* (unsharded) index; name/neighbor evidence and the
        rules run on it locally.  Loading maps it -- no decode, and
        page-shared with co-located workers.
    replica_sets:
        One list of replicas per shard, shard order.  Replicas need
        ``send/cancel/request/shutdown/kill`` (see
        :class:`ProcessReplica` / :class:`InlineReplica`); each gets a
        circuit breaker attached if it brings none.
    on_shard_error:
        ``(shard, error) -> None``, fired once per healthy->down
        transition in ``degrade`` mode; the CLI emits the stream's
        error record from it.

    Everything else (config, cache, recorder) is the engine's.
    """

    def __init__(
        self,
        index: ResolutionIndex,
        replica_sets: Sequence[Sequence[Any]],
        config: MinoanERConfig | None = None,
        cache: LRUCache | None = None,
        recorder: Recorder | None = None,
        on_shard_error: Callable[[int, Exception], None] | None = None,
    ):
        super().__init__(index, config, cache, recorder)
        if not replica_sets:
            raise ValueError("a router needs at least one shard")
        keep_freed_memory()
        self._replicas: list[list[Any]] = [list(group) for group in replica_sets]
        for group in self._replicas:
            if not group:
                raise ValueError("every shard needs at least one replica")
            for replica in group:
                self._attach_breaker(replica)
        self.shards = len(self._replicas)
        self._on_shard_error = on_shard_error
        self._down: set[int] = set()
        self._rr = [0] * self.shards
        self._rr_lock = threading.Lock()
        #: Recent round-trip milliseconds per ``(shard, op)``.
        self._latency: defaultdict[tuple[int, str], deque[float]] = defaultdict(
            lambda: deque(maxlen=HEDGE_WINDOW)
        )
        self._pool = ThreadPoolExecutor(
            max_workers=max(2, 2 * self.shards), thread_name_prefix="shard-router"
        )
        #: Per-shard worker compute milliseconds (self-reported
        #: ``service_ms``) of the most recent scatter; None for a shard
        #: that degraded.
        self.last_service_ms: list[float | None] | None = None
        #: Finagle-style retry budget shared by every shard call in
        #: ``failure_mode="retry"``: retries stop when sustained
        #: failures outpace real traffic (docs/resilience.md).
        self.retry_budget = RetryBudget()
        #: ``shard -> replica`` factory used by :meth:`resurrect`;
        #: :meth:`spawn` installs one over the shard files it launched
        #: from.  ``None`` means dead replicas stay dead (constructed
        #: routers own replicas the router cannot recreate).
        self._replica_factory: Callable[[int], Any] | None = None
        #: Attached :class:`~repro.resilience.supervisor.ReplicaSupervisor`
        #: (``spawn(supervise=True)``); closed first by :meth:`close`.
        self.supervisor: ReplicaSupervisor | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def spawn(
        cls,
        index_path: str | Path,
        count: int,
        replicas: int = 1,
        config: MinoanERConfig | None = None,
        cache: LRUCache | None = None,
        recorder: Recorder | None = None,
        on_shard_error: Callable[[int, Exception], None] | None = None,
        index: ResolutionIndex | None = None,
        supervise: bool = False,
        supervisor_options: dict[str, Any] | None = None,
    ) -> "ShardRouter":
        """Launch ``count * replicas`` worker subprocesses and a router.

        Expects the shard files of ``index_path`` (written by
        ``repro index --shards``) next to it; each worker is
        handshaken with ``hello`` before the router is returned, so a
        missing or corrupt shard fails construction, not the first
        query.  ``index`` short-circuits re-loading the full index when
        the caller already holds it.

        ``supervise=True`` attaches a started
        :class:`~repro.resilience.supervisor.ReplicaSupervisor`
        (tunable via ``supervisor_options``) that restarts crashed or
        reload-failed replicas from the same shard files; the router
        always installs the replica factory :meth:`resurrect` needs, so
        a supervisor can also be attached later.
        """
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        paths = shard_paths(index_path, count)
        missing = [str(path) for path in paths if not path.exists()]
        if missing:
            raise FileNotFoundError(
                f"missing shard files ({', '.join(missing)}); "
                f"run `repro index --shards {count}` first"
            )
        if index is None:
            index = ResolutionIndex.load(index_path)
        config_json = (
            json.dumps(config_to_dict(config)) if config is not None else None
        )

        def factory(shard: int) -> "ProcessReplica":
            return ProcessReplica(paths[shard], shard, config_json=config_json)

        replica_sets: list[list[ProcessReplica]] = []
        try:
            for shard in range(len(paths)):
                group = []
                for _ in range(replicas):
                    replica = factory(shard)
                    group.append(replica)
                    replica.request("hello", timeout=120.0)
                replica_sets.append(group)
        except Exception:
            for group in replica_sets:
                for replica in group:
                    replica.kill()
            raise
        router = cls(
            index,
            replica_sets,
            config=config,
            cache=cache,
            recorder=recorder,
            on_shard_error=on_shard_error,
        )
        router._replica_factory = factory
        if supervise:
            router.supervisor = ReplicaSupervisor(
                router, **(supervisor_options or {})
            ).start()
        return router

    # ------------------------------------------------------------------
    # Evidence seam: scatter-gather provider
    # ------------------------------------------------------------------
    def _single_values(
        self, alpha: int | None, tokens: list[str], deadline: Deadline | None
    ) -> tuple[CandidateList, Sequence[int], bool]:
        """Scatter the purged ``tokens``: the list is identical on every
        shard (full token table + global EFs travel in each shard file),
        so the engine derived it once instead of N times in the workers
        and the request carries it, not the whole entity.  The shards'
        rows merge under ``(-score, id)``."""
        payload: dict[str, Any] = {"tokens": tokens}
        if alpha is not None:
            payload["probe"] = int(alpha)
        evidences, degraded = self._gather("match", payload, deadline)
        value_list, sweep = merge_single_evidence(
            self.config, self._cut, alpha, evidences
        )
        return value_list, sweep, degraded

    def _batch_values(
        self,
        batch: list[EntityDescription],
        qkb: KnowledgeBase,
        deadline: Deadline | None,
    ) -> tuple[list[CandidateList], list[CandidateList], bool]:
        """Scattered batch evidence, merged into ``(value_1, value_2)``.

        Each reply arrives checked by the shard call
        (:meth:`_request_shard`), so a malformed one failed over like
        any other replica error."""
        payload = {"entities": [entity_to_json(entity) for entity in batch]}
        replies, degraded = self._gather("batch", payload, deadline)
        value_1, value_2 = merge_batch_evidence(
            self._run_kernel,
            self.config,
            self._cut,
            len(batch),
            self.index.id_space,
            [reply["evidence"] for reply in replies],
        )
        return value_1, value_2, degraded

    # ------------------------------------------------------------------
    # Scatter/gather
    # ------------------------------------------------------------------
    def _gather(
        self, op: str, payload: dict[str, Any], deadline: Deadline | None
    ) -> tuple[list[dict[str, Any]], bool]:
        """One request to every shard; ``(survivors' results, degraded)``.

        A shard whose every usable replica failed is simply absent in
        ``degrade`` mode (the merge treats absence as empty evidence);
        in ``fail_fast``/``retry`` modes its failure propagates.  :class:`DeadlineExpired` always propagates -- the
        engine's degraded-answer machinery owns budget expiry.
        """
        # The ambient fault plan is a ContextVar and would be invisible
        # inside the pool threads; capture it here (the query thread)
        # so `--chaos shard:request:N=...` reaches the launch sites.
        plan = current_faults()
        results: list[dict[str, Any] | None] = []
        degraded = False

        def settle(shard: int, resolve: Callable[[], dict[str, Any]]) -> None:
            nonlocal degraded
            try:
                result = resolve()
            except DeadlineExpired:
                raise
            except ShardFailure as error:
                if self.config.failure_mode != "degrade":
                    raise
                results.append(None)
                degraded = True
                if shard not in self._down:
                    self._down.add(shard)
                    if self._on_shard_error is not None:
                        self._on_shard_error(shard, error)
            else:
                results.append(result)
                if shard in self._down:
                    self._down.discard(shard)

        futures = [
            self._pool.submit(self._shard_call, shard, op, payload, deadline, plan)
            for shard in range(self.shards)
        ]
        for shard, future in enumerate(futures):
            settle(shard, future.result)
        self.last_service_ms = [
            result.get("service_ms") if result is not None else None
            for result in results
        ]
        return [result for result in results if result is not None], degraded

    def _shard_call(
        self,
        shard: int,
        op: str,
        payload: dict[str, Any],
        deadline: Deadline | None,
        plan: FaultPlan | None = None,
    ) -> dict[str, Any]:
        """One shard's answer, retried per ``config.failure_mode``.

        Retries are doubly bounded: backoff sleeps clamp to the
        query's remaining deadline, and the router-wide
        :attr:`retry_budget` (fed by real shard calls) stops retry
        amplification once sustained failures outpace traffic.
        """
        if self.config.failure_mode == "retry":
            self.retry_budget.note_request()
            policy = RetryPolicy(
                max_attempts=self.config.retry_max_attempts,
                base_delay_s=RETRY_BASE_DELAY_S,
                retryable=(ShardFailure,),
            )
            return policy.call(
                lambda: self._request_shard(shard, op, payload, deadline, plan),
                deadline=deadline,
                budget=self.retry_budget,
            )
        return self._request_shard(shard, op, payload, deadline, plan)

    def _request_shard(
        self,
        shard: int,
        op: str,
        payload: dict[str, Any],
        deadline: Deadline | None,
        plan: FaultPlan | None = None,
    ) -> dict[str, Any]:
        """One hedged request to a shard's replica group.

        Round-robin picks the primary; a backup fires after the hedge
        delay and the first good answer wins (losers cancelled).  A
        replica error rolls over to the next usable replica
        immediately; so does a ``batch`` reply whose sections fail
        :func:`~repro.sharding.protocol.evidence_of` (a good one is
        returned with its checked evidence under ``"evidence"``).  Raises
        :class:`ShardFailure` when the group is exhausted and
        :class:`DeadlineExpired` when the budget runs out (locally or
        reported by the worker).  The hedge delay is learnt per
        ``(shard, op)``: a batch and a single query differ in cost by
        orders of magnitude.
        """
        replicas = self._replica_order(shard)
        if deadline is not None:
            deadline.check(f"shard {shard} request")
            payload = dict(payload)
            payload["budget_ms"] = deadline.remaining() * 1e3
        sink: queue.Queue = queue.Queue()
        inflight: dict[Any, int] = {}
        cursor = 0
        last_error: Exception | None = None
        hedge_replica: Any = None

        def launch() -> Any:
            nonlocal cursor, last_error
            while cursor < len(replicas):
                replica = replicas[cursor]
                cursor += 1
                if not replica.breaker.allow():
                    continue
                self.recorder.count("shard.requests")
                try:
                    if plan is not None:
                        action = plan.draw(f"shard:request:{shard}")
                        if action is not None:
                            action.apply()
                    rid = replica.send(op, payload, sink)
                except Exception as error:
                    last_error = error
                    self._replica_failed(replica, error)
                    continue
                inflight[replica] = rid
                return replica
            return None

        def cancel_losers(winner: Any = None) -> None:
            for replica, rid in list(inflight.items()):
                if replica is not winner:
                    replica.cancel(rid)

        primary = launch()
        if primary is None:
            raise ShardFailure(
                f"shard {shard}: no replica accepted the request"
                + (f" ({last_error})" if last_error else "")
            )
        started = time.perf_counter()
        hedge_delay = self._hedge_delay(shard, op)
        while True:
            if not inflight:
                if launch() is None:
                    raise ShardFailure(
                        f"shard {shard}: all replicas failed ({last_error})"
                    )
                continue
            timeout: float | None = None
            if hedge_replica is None and cursor < len(replicas):
                elapsed = time.perf_counter() - started
                timeout = max(0.0, hedge_delay - elapsed)
            if deadline is not None:
                remaining = deadline.remaining()
                if remaining <= 0:
                    cancel_losers()
                    deadline.check(f"shard {shard} response")
                timeout = remaining if timeout is None else min(timeout, remaining)
            try:
                kind, replica, body = sink.get(timeout=timeout)
            except queue.Empty:
                if deadline is not None and deadline.expired:
                    cancel_losers()
                    deadline.check(f"shard {shard} response")
                if hedge_replica is None and cursor < len(replicas):
                    hedge_replica = launch()
                    if hedge_replica is not None:
                        self.recorder.count("shard.hedge.fired")
                continue
            if inflight.pop(replica, None) is None:
                continue  # stale answer from a cancelled twin
            if kind == "err":
                last_error = body
                self._replica_failed(replica, body)
                continue
            if not body.get("ok"):
                message = body.get("error", "unknown error")
                if body.get("kind") == "deadline":
                    # The worker ran out of the budget we gave it; that
                    # is the query's deadline, not the replica's fault.
                    replica.breaker.record_success()
                    cancel_losers()
                    raise DeadlineExpired(f"shard {shard}: {message}")
                error = ShardFailure(f"shard {shard}: {message}")
                last_error = error
                self._replica_failed(replica, error)
                continue
            if op == "batch":
                try:
                    body["evidence"] = evidence_of(
                        body, len(payload["entities"]), self.index.id_space
                    )
                except ProtocolError as error:
                    last_error = ShardFailure(f"shard {shard}: {error}")
                    self._replica_failed(replica, last_error)
                    continue
            replica.breaker.record_success()
            elapsed_ms = (time.perf_counter() - started) * 1e3
            self.recorder.observe("shard.latency_ms", elapsed_ms)
            self._latency[shard, op].append(elapsed_ms)
            if hedge_replica is not None:
                self.recorder.count(
                    "shard.hedge.won"
                    if replica is hedge_replica
                    else "shard.hedge.lost"
                )
            cancel_losers(winner=replica)
            return body

    def _replica_order(self, shard: int) -> list[Any]:
        """The shard's replicas, rotated round-robin per request."""
        group = self._replicas[shard]
        with self._rr_lock:
            offset = self._rr[shard]
            self._rr[shard] = (offset + 1) % len(group)
        return group[offset:] + group[:offset]

    def _attach_breaker(self, replica: Any) -> None:
        """Give a replica that brings no circuit breaker the default one."""
        if replica.breaker is None:
            replica.breaker = CircuitBreaker(recorder=self.recorder)

    def _replica_failed(self, replica: Any, error: Exception) -> None:
        replica.breaker.record_failure()
        self.recorder.count("shard.failures")

    def _hedge_delay(self, shard: int, op: str) -> float:
        """Seconds before a backup ``op`` request fires for this shard:
        the p95 of its recent ``op`` latencies, once it has enough."""
        window = self._latency[shard, op]
        if len(window) < HEDGE_MIN_SAMPLES:
            return DEFAULT_HEDGE_DELAY_S
        return percentile(sorted(window), 0.95) / 1e3

    # ------------------------------------------------------------------
    # Resurrection (driven by ReplicaSupervisor)
    # ------------------------------------------------------------------
    @contextmanager
    def _resurrection_gate(self) -> Iterator[None]:
        """Mutual exclusion for readmitting a replica into its group.

        The plain router only needs the round-robin lock (the group
        list is never swapped); :class:`LiveShardRouter` overrides this
        with the drain gate so readmission serialises with compaction's
        worker-fleet swap.
        """
        with self._rr_lock:
            yield

    def _swap_epoch(self) -> int:
        """Monotonic count of base swaps; a worker spawned before a
        swap must not be readmitted after it (it mapped the old file)."""
        return getattr(self, "swap_count", 0)

    def resurrect(self, shard: int, position: int) -> bool:
        """Replace a dead replica at ``(shard, position)`` with a fresh
        worker spawned from the shard file on disk.

        The expensive part -- spawn + ``hello`` handshake, which maps
        and verifies the shard container -- happens *outside* any gate,
        so queries keep flowing while the worker warms.  Readmission
        itself is a short critical section that first re-checks the
        swap epoch recorded before the spawn: if a compaction swapped
        the shard files meanwhile, the fresh worker mapped a stale
        file and is discarded (:class:`ShardFailure`; the supervisor
        retries, and the retry maps the new file).  A readmitted worker
        is decision-identical to one that never crashed: workers are
        pure functions of the frozen shard file and the request, and
        the live overlay never leaves the router.

        Returns ``False`` when the router has no replica factory
        (replicas it cannot recreate) or the slot is alive again.
        Counts ``shard.resurrections``.
        """
        factory = self._replica_factory
        if factory is None or self._closed:
            return False
        group = self._replicas[shard]
        dead = group[position]
        if getattr(dead, "alive", False):
            return False
        epoch = self._swap_epoch()
        replica = factory(shard)
        try:
            hello = replica.request("hello", timeout=120.0)
            if int(hello.get("shard", -1)) != shard:
                raise ShardFailure(
                    f"shard {shard}: resurrected worker identifies as "
                    f"shard {hello.get('shard')}"
                )
        except Exception:
            replica.kill()
            raise
        self._attach_breaker(replica)
        with self._resurrection_gate():
            if self._closed or self._swap_epoch() != epoch:
                replica.kill()
                raise ShardFailure(
                    f"shard {shard}: index swapped during resurrection"
                )
            group[position] = replica
        dead.kill()
        self.recorder.count("shard.resurrections")
        return True

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    def wire_floor_ms(self, samples: int = 30) -> float:
        """Median ``hello`` round-trip: the fan-out's pure wire cost.

        No evidence compute happens on a ``hello``, so this is the
        frame-protocol + scheduling floor one shard hop pays; the
        shard-scaling benchmark combines it with the workers'
        self-reported ``service_ms`` to reconstruct the scatter-gather
        critical path free of single-core queueing noise.
        """
        timings = []
        for _ in range(max(1, samples)):
            started = time.perf_counter()
            self._replicas[0][0].request("hello", timeout=30.0)
            timings.append((time.perf_counter() - started) * 1e3)
        timings.sort()
        return timings[len(timings) // 2]

    def stats(self) -> dict[str, object]:
        """Engine stats plus a ``sharding`` section."""
        snapshot = super().stats()
        recorder = self.recorder
        snapshot["sharding"] = {
            "shards": self.shards,
            "replicas": [len(group) for group in self._replicas],
            "down": sorted(self._down),
            "requests": int(recorder.counter_value("shard.requests")),
            "failures": int(recorder.counter_value("shard.failures")),
            "hedge_fired": int(recorder.counter_value("shard.hedge.fired")),
            "hedge_won": int(recorder.counter_value("shard.hedge.won")),
            "hedge_lost": int(recorder.counter_value("shard.hedge.lost")),
            "resurrections": int(recorder.counter_value("shard.resurrections")),
        }
        snapshot["sharding"]["retry_budget"] = self.retry_budget.stats()
        if self.supervisor is not None:
            snapshot["sharding"]["supervisor"] = self.supervisor.stats()
        return snapshot

    def close(self) -> None:
        """Graft worker traces into the router's recorder and shut down.

        Each reachable replica is asked for its engine's
        :class:`~repro.obs.recorder.RecorderSnapshot`, which is merged
        under a ``shard.worker`` span (so ``--trace`` output shows
        per-shard kernel/cache activity nested under the router's
        trace); then workers are stopped and the pool drained.
        Idempotent.
        """
        if self._closed:
            return
        # Stop the supervisor before killing workers: a sweep racing
        # shutdown would resurrect the very replicas being stopped.
        if self.supervisor is not None:
            self.supervisor.close()
        self._closed = True
        for shard, group in enumerate(self._replicas):
            for position, replica in enumerate(group):
                try:
                    body = replica.request("stats", timeout=10.0)
                except Exception:
                    continue
                with self.recorder.span(
                    "shard.worker", shard=shard, replica=position
                ) as span:
                    pass
                self.recorder.merge(snapshot_from_json(body["snapshot"]), span)
        for group in self._replicas:
            for replica in group:
                try:
                    replica.shutdown()
                except Exception:
                    pass
        self._pool.shutdown(wait=False)

    def __repr__(self) -> str:
        return (
            f"ShardRouter(index={self.index.kb_name!r}, shards={self.shards}, "
            f"replicas={[len(group) for group in self._replicas]})"
        )


class LiveShardRouter(LiveServingMixin, ShardRouter):
    """A :class:`ShardRouter` over a live index: upserts, deletes,
    compaction and zero-drop swaps across the whole worker fleet.

    Workers keep serving their frozen shard files untouched; the
    overlay lives on the router alone.  With no edit pending, singles
    and batches scatter as on a frozen router.  While a delta is
    active, both answer in-process through the engine's own evidence
    seam over the router's :class:`~repro.serving.live.LiveIndex` --
    exactly what a :class:`~repro.serving.live.LiveEngine` runs --
    and each such answer counts ``shard.local``.  No worker is asked,
    so an answer under pending edits is never ``degraded`` by a dead
    shard.  Compaction folds the delta into fresh shard files and
    restores the scattered path.

    :meth:`compact` plans the fresh base's shards, writes the base and
    every shard file all-or-nothing (temp files, then renames, so
    replicas mapping an old inode keep its pages until they flip) and
    broadcasts ``reload`` to every replica while the drain gate is held
    (no worker request can be in flight).  A
    replica that fails its reload is killed on the spot -- a dead
    replica degrades per ``failure_mode``, which is strictly better
    than a live one answering from a stale generation.
    """

    def _single_values(self, alpha, tokens, deadline):
        if self.index.delta_active:
            self.recorder.count("shard.local")
            return MatchEngine._single_values(self, alpha, tokens, deadline)
        return super()._single_values(alpha, tokens, deadline)

    def _batch_values(self, batch, qkb, deadline):
        if self.index.delta_active:
            self.recorder.count("shard.local")
            return MatchEngine._batch_values(self, batch, qkb, deadline)
        return super()._batch_values(batch, qkb, deadline)

    @contextmanager
    def _resurrection_gate(self):
        """Readmission serialises with compaction through the drain
        gate: ``_swap_workers`` runs under ``handle.exclusive()``, so a
        resurrected worker can never slip into the fleet while the
        shard files and worker generations are mid-swap."""
        with self.handle.exclusive():
            yield

    def _swap_files(self, fresh: ResolutionIndex, path: Path) -> dict[Path, Any]:
        # Planned before anything is written: a failed write changes no file.
        return {path: fresh.data, **ShardPlanner(self.shards).files(fresh, path)}

    def _swap_workers(self, fresh: ResolutionIndex, path: Path | None) -> None:
        if path is None:
            raise ValueError(
                "a sharded live tier swaps through shard files on disk; "
                "set index_path (the CLI does) or pass compact(path=...)"
            )
        paths = shard_paths(path, self.shards)
        for shard, group in enumerate(self._replicas):
            for replica in list(group):
                try:
                    body = replica.request(
                        "reload",
                        {"path": str(paths[shard])},
                        timeout=120.0,
                    )
                    if int(body.get("shard", shard)) != shard:
                        raise ShardFailure(
                            f"shard {shard}: reloaded file identifies as "
                            f"shard {body.get('shard')}"
                        )
                except Exception as error:
                    # A replica that missed the swap must never answer
                    # again -- it would serve the old generation.  Kill
                    # it; the group degrades per failure_mode.
                    replica.kill()
                    self.recorder.count("shard.reload_failures")
                    if self._on_shard_error is not None:
                        exc = (
                            error
                            if isinstance(error, Exception)
                            else RuntimeError(str(error))
                        )
                        self._on_shard_error(shard, exc)

    def __repr__(self) -> str:
        live = self.index
        return (
            f"LiveShardRouter(index={live.kb_name!r}, shards={self.shards}, "
            f"generation={self.generation}, delta={live.delta.live_count})"
        )
