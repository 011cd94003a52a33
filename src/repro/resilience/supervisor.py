"""Replica supervision: health-check, backoff, resurrect, readmit.

PR 7 gave the sharded serving tier replicas, hedging and circuit
breakers -- enough to *survive* a dead worker, but a replica that
crashed (or failed a live-index ``reload``) stayed dead until the
operator restarted the server.  :class:`ReplicaSupervisor` closes the
loop: a background thread sweeps the router's replica groups, and for
every dead slot it

1. waits out a **seeded exponential backoff** (per slot, so one
   crash-looping shard cannot starve the others),
2. charges a **restart-storm budget** -- at most ``max_restarts``
   restarts per ``window_s`` rolling window per slot; an exhausted
   budget parks the slot (``supervisor.storm_suppressed``) instead of
   hot-looping a worker that dies on arrival,
3. asks the router to :meth:`resurrect` the slot: spawn a fresh worker
   from the shard file on disk, handshake it *outside* the drain gate,
   then swap it into the round-robin under the gate only if no index
   swap happened meanwhile (the generation check -- a worker that
   loaded a pre-compaction file must not serve a post-compaction
   router).

Resurrection is decision-identical to a never-crashed run because shard
workers are pure functions of the frozen shard container plus the
request: the delta overlay never leaves the router (which answers
in-process while edits are pending), so a worker readmitted at the
current generation answers byte-identically to one that never died.
The supervisor never touches index state -- it only replaces transport
endpoints -- which is what keeps it safe to run concurrently with
upserts, compaction, and hedged queries.

Counters (ambient or router recorder): ``supervisor.ticks``,
``supervisor.restarts`` (the Prometheus ``supervisor_restarts_total``),
``supervisor.restart_failures``, ``supervisor.storm_suppressed``,
``supervisor.probe_failures``; gauge ``supervisor.dead_replicas``.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from typing import Any, Callable

DEFAULT_INTERVAL_S = 0.2
DEFAULT_MAX_RESTARTS = 5
DEFAULT_WINDOW_S = 30.0
DEFAULT_BASE_BACKOFF_S = 0.05
DEFAULT_MAX_BACKOFF_S = 2.0
HEALTHY_RESET_S = 5.0
"""A replica that stays alive this long after a restart resets its
exponential-backoff attempt counter."""


class _Slot:
    """Supervision state for one (shard, position) replica slot."""

    __slots__ = ("attempt", "last_restart", "next_due", "restarts", "suppressed")

    def __init__(self) -> None:
        self.attempt = 0
        self.next_due = 0.0
        self.last_restart: float | None = None
        self.restarts: deque[float] = deque()
        self.suppressed = False


class ReplicaSupervisor:
    """Self-healing loop over a :class:`~repro.sharding.router.ShardRouter`.

    Parameters
    ----------
    router:
        Anything exposing ``_replicas`` (list of replica groups, each
        replica with an ``alive`` attribute), ``resurrect(shard, pos)``
        and ``recorder``.  :meth:`ShardRouter.resurrect` is the real
        implementation; unit tests drive a stub.
    interval_s:
        Sweep period of the health-check thread.
    max_restarts / window_s:
        The restart-storm budget: per slot, at most ``max_restarts``
        restart *attempts* per rolling ``window_s`` seconds.
    base_backoff_s / max_backoff_s / jitter_ratio / seed:
        Exponential backoff between successive restarts of the same
        slot: ``min(max, base * 2**(n-1)) * (1 + jitter * rng())`` with
        a seeded RNG, mirroring :class:`repro.resilience.policy.RetryPolicy`.
    probe_every:
        If > 0, every Nth sweep also sends a ``hello`` probe to live
        replicas; one that fails or times out is killed (it is hung,
        not just slow) and picked up by the normal restart path.
    clock:
        Injected monotonic clock for deterministic tests; the
        background thread still sleeps on real time.
    """

    def __init__(
        self,
        router: Any,
        interval_s: float = DEFAULT_INTERVAL_S,
        max_restarts: int = DEFAULT_MAX_RESTARTS,
        window_s: float = DEFAULT_WINDOW_S,
        base_backoff_s: float = DEFAULT_BASE_BACKOFF_S,
        max_backoff_s: float = DEFAULT_MAX_BACKOFF_S,
        jitter_ratio: float = 0.1,
        seed: int = 0,
        probe_every: int = 0,
        probe_timeout_s: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
        recorder=None,
    ):
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        if max_restarts < 1:
            raise ValueError(f"max_restarts must be >= 1, got {max_restarts}")
        self.router = router
        self.interval_s = interval_s
        self.max_restarts = max_restarts
        self.window_s = window_s
        self.base_backoff_s = base_backoff_s
        self.max_backoff_s = max_backoff_s
        self.jitter_ratio = jitter_ratio
        self.seed = seed
        self.probe_every = probe_every
        self.probe_timeout_s = probe_timeout_s
        self._clock = clock
        self._recorder = recorder
        self._rng = random.Random(seed)
        self._slots: dict[tuple[int, int], _Slot] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._ticks = 0
        self.restarts = 0
        self.restart_failures = 0
        self.storm_suppressed = 0
        self.probe_failures = 0

    # -- lifecycle -----------------------------------------------------

    @property
    def recorder(self):
        if self._recorder is not None:
            return self._recorder
        return getattr(self.router, "recorder", None)

    def start(self) -> "ReplicaSupervisor":
        """Start the background sweep thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="replica-supervisor", daemon=True
            )
            self._thread.start()
        return self

    def close(self) -> None:
        """Stop sweeping.  Must be called before the router kills its
        workers, or the supervisor would resurrect them mid-shutdown."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "ReplicaSupervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.tick()
            except Exception:  # pragma: no cover - belt and braces
                recorder = self.recorder
                if recorder is not None:
                    recorder.count("supervisor.errors")

    # -- the sweep -----------------------------------------------------

    def backoff_s(self, attempt: int) -> float:
        """Backoff before restart attempt ``attempt`` (1-based) of a slot."""
        delay = min(self.max_backoff_s, self.base_backoff_s * (2.0 ** (attempt - 1)))
        if self.jitter_ratio:
            with self._lock:
                delay *= 1.0 + self.jitter_ratio * self._rng.random()
        return delay

    def _slot(self, shard: int, position: int) -> _Slot:
        key = (shard, position)
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = _Slot()
        return slot

    def tick(self) -> int:
        """One synchronous sweep; returns the number of restarts made.

        Public so tests (and diagnostics) can drive supervision
        deterministically without the background thread.
        """
        self._ticks += 1
        recorder = self.recorder
        if recorder is not None:
            recorder.count("supervisor.ticks")
        probe = self.probe_every > 0 and self._ticks % self.probe_every == 0
        restarted = 0
        dead = 0
        for shard, group in enumerate(list(self.router._replicas)):
            for position, replica in enumerate(list(group)):
                if getattr(replica, "alive", True):
                    if probe and not self._probe(replica):
                        dead += 1
                        restarted += self._heal(shard, position)
                    else:
                        self._note_healthy(shard, position)
                    continue
                dead += 1
                restarted += self._heal(shard, position)
        if recorder is not None:
            recorder.gauge("supervisor.dead_replicas", float(dead - restarted))
        return restarted

    def _probe(self, replica: Any) -> bool:
        """Active liveness check; kills a hung replica and reports False."""
        request = getattr(replica, "request", None)
        if request is None:
            return True
        try:
            request("hello", timeout=self.probe_timeout_s)
            return True
        except Exception:
            self.probe_failures += 1
            recorder = self.recorder
            if recorder is not None:
                recorder.count("supervisor.probe_failures")
            kill = getattr(replica, "kill", None)
            if kill is not None:
                kill()
            return False

    def _note_healthy(self, shard: int, position: int) -> None:
        slot = self._slots.get((shard, position))
        if slot is None or slot.last_restart is None:
            return
        if self._clock() - slot.last_restart >= HEALTHY_RESET_S:
            slot.attempt = 0
            slot.suppressed = False

    def _heal(self, shard: int, position: int) -> int:
        slot = self._slot(shard, position)
        now = self._clock()
        if now < slot.next_due:
            return 0
        # Restart-storm budget over a rolling window of attempts.
        while slot.restarts and now - slot.restarts[0] > self.window_s:
            slot.restarts.popleft()
        if len(slot.restarts) >= self.max_restarts:
            if not slot.suppressed:
                slot.suppressed = True
                self.storm_suppressed += 1
                recorder = self.recorder
                if recorder is not None:
                    recorder.count("supervisor.storm_suppressed")
            slot.next_due = slot.restarts[0] + self.window_s
            return 0
        slot.suppressed = False
        slot.restarts.append(now)
        slot.attempt += 1
        slot.last_restart = now
        recorder = self.recorder
        try:
            ok = bool(self.router.resurrect(shard, position))
        except Exception:
            ok = False
        if ok:
            self.restarts += 1
            if recorder is not None:
                recorder.count("supervisor.restarts")
            # A crash-looping slot backs off even when each restart
            # "succeeds": next_due only binds while the slot is dead,
            # and a sustained healthy period resets the attempt count
            # (see _note_healthy).
            slot.next_due = now + self.backoff_s(slot.attempt)
            return 1
        self.restart_failures += 1
        if recorder is not None:
            recorder.count("supervisor.restart_failures")
        slot.next_due = now + self.backoff_s(slot.attempt)
        return 0

    # -- introspection -------------------------------------------------

    def stats(self) -> dict[str, object]:
        slots = {}
        for (shard, position), slot in sorted(self._slots.items()):
            slots[f"{shard}/{position}"] = {
                "attempt": slot.attempt,
                "recent_restarts": len(slot.restarts),
                "suppressed": slot.suppressed,
            }
        return {
            "ticks": self._ticks,
            "restarts": self.restarts,
            "restart_failures": self.restart_failures,
            "storm_suppressed": self.storm_suppressed,
            "probe_failures": self.probe_failures,
            "max_restarts": self.max_restarts,
            "window_s": self.window_s,
            "slots": slots,
        }

    def __repr__(self) -> str:
        return (
            f"ReplicaSupervisor(interval_s={self.interval_s}, "
            f"restarts={self.restarts}, failures={self.restart_failures})"
        )
