"""Admission control: bounded queues, per-source quotas, retry budgets.

An overloaded server has exactly three honest choices: queue (bounded!),
shed (explicitly!), or degrade (flagged!).  This module supplies the
first two for the serving tier; ``failure_mode="degrade"`` (PR 4/7)
already supplies the third.  The design follows the classic SRE
playbook -- a bounded pending-work gauge instead of an unbounded queue,
token buckets per traffic source instead of one global throttle, and a
Finagle-style *retry budget* so retries are a fixed fraction of real
traffic rather than a multiplier on it:

* :class:`TokenBucket` -- the standard leaky-bucket rate limiter:
  ``rate_per_s`` tokens drip in, ``burst`` caps the reservoir,
  ``try_take`` never blocks (admission control sheds, it does not
  queue callers on a lock).
* :class:`RetryBudget` -- every real request deposits ``ratio`` tokens,
  every retry withdraws one; a small constant ``reserve`` keeps
  low-traffic clients (and unit tests) unconstrained.  When a shard is
  down hard, the budget drains and retries stop, turning a 3x
  amplification into fail-fast.
* :class:`AdmissionController` -- the front door: a bounded
  pending-cost gauge (queue limit) plus lazily-created per-source
  buckets (quota).  Rejections raise :class:`LoadShedError` carrying a
  machine-readable ``reason`` (``"queue"`` or ``"quota"``) so the CLI
  can emit an explicit shed record -- never a silent drop.

Everything is deterministic under an injected ``clock`` and counts
through the ambient :func:`repro.obs.current_recorder`
(``admission.admitted``, ``admission.shed.queue``,
``admission.shed.quota``, ``retry.budget_denied``).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.obs import current_recorder

DEFAULT_SOURCE = "default"
"""Bucket key used when a request carries no ``source`` label."""

MAX_TRACKED_SOURCES = 1024
"""Per-source buckets are kept in an LRU of at most this many entries,
so a hostile client cannot grow router memory by inventing sources."""


class LoadShedError(RuntimeError):
    """An admission rejection: the request was shed, not processed.

    ``reason`` is machine-readable (``"queue"`` | ``"quota"``) and is
    copied onto the JSONL shed record by ``repro serve``; ``source`` is
    the traffic source that was over its quota (queue rejections apply
    to all sources, so it may be ``None``).
    """

    def __init__(self, reason: str, message: str, source: str | None = None):
        super().__init__(message)
        self.reason = reason
        self.source = source


class TokenBucket:
    """A non-blocking token bucket: ``rate_per_s`` refill, ``burst`` cap.

    >>> clock = iter([0.0, 0.0, 0.0, 1.0]).__next__
    >>> bucket = TokenBucket(rate_per_s=1.0, burst=1.0, clock=clock)
    >>> bucket.try_take(), bucket.try_take(), bucket.try_take()
    (True, False, True)
    """

    __slots__ = ("_clock", "_last", "_lock", "burst", "rate_per_s", "tokens")

    def __init__(
        self,
        rate_per_s: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate_per_s <= 0:
            raise ValueError(f"rate_per_s must be > 0, got {rate_per_s}")
        if burst <= 0:
            raise ValueError(f"burst must be > 0, got {burst}")
        self.rate_per_s = rate_per_s
        self.burst = burst
        self._clock = clock
        self._last = clock()
        self.tokens = burst
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._last)
        self._last = now
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate_per_s)

    def try_take(self, amount: float = 1.0) -> bool:
        """Take ``amount`` tokens if available; never blocks."""
        with self._lock:
            self._refill(self._clock())
            if self.tokens + 1e-9 < amount:
                return False
            self.tokens -= amount
            return True


class RetryBudget:
    """Finagle-style retry budget: retries as a fraction of real traffic.

    Every call to :meth:`note_request` deposits ``ratio`` tokens (capped
    at ``cap``); every :meth:`allow_retry` withdraws one.  The balance
    starts at ``reserve`` so cold starts and low-volume callers retry
    freely; under a sustained failure the deposits cannot keep up with
    the withdrawals and retries stop -- the amplification bound is
    ``1 + ratio`` requests downstream per request upstream, instead of
    ``max_attempts``x.
    """

    __slots__ = ("_lock", "balance", "cap", "denied", "ratio", "reserve")

    def __init__(self, ratio: float = 0.2, reserve: float = 10.0, cap: float = 100.0):
        if ratio < 0:
            raise ValueError(f"ratio must be >= 0, got {ratio}")
        if reserve < 0 or cap < reserve:
            raise ValueError(f"need 0 <= reserve <= cap, got {reserve}/{cap}")
        self.ratio = ratio
        self.reserve = reserve
        self.cap = cap
        self.balance = float(reserve)
        self.denied = 0
        self._lock = threading.Lock()

    def note_request(self) -> None:
        """Record one unit of real (non-retry) traffic."""
        with self._lock:
            self.balance = min(self.cap, self.balance + self.ratio)

    def allow_retry(self) -> bool:
        """Withdraw one retry token; ``False`` means do not retry."""
        with self._lock:
            # The epsilon keeps float deposit drift (10 x 0.1 < 1.0) from
            # denying a retry the arithmetic says is funded.
            if self.balance + 1e-9 >= 1.0:
                self.balance -= 1.0
                return True
            self.denied += 1
        current_recorder().count("retry.budget_denied")
        return False

    def stats(self) -> dict[str, float | int]:
        with self._lock:
            return {"balance": round(self.balance, 3), "denied": self.denied}


class AdmissionController:
    """The serving front door: bounded pending work + per-source quotas.

    Parameters
    ----------
    max_pending:
        Upper bound on the summed *cost* (query count) of requests
        currently inside the engine.  ``None`` disables the bound.
    quota_qps:
        Per-source token-bucket quota.  ``None`` disables quotas; each
        bucket's burst (:attr:`quota_burst`) is ``max(1, 2 * quota_qps)``.
    clock:
        Injected monotonic clock for deterministic tests.

    Use as a context manager around the admitted work::

        with admission.admit(source="tenant-a", cost=len(batch)):
            ...  # pending cost held for the duration

    Rejections raise :class:`LoadShedError` *before* any work happens
    and are counted on the recorder; they must surface to the client as
    explicit error records, never as silently dropped requests.
    """

    def __init__(
        self,
        max_pending: int | None = None,
        quota_qps: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        recorder=None,
    ):
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if quota_qps is not None and quota_qps <= 0:
            raise ValueError(f"quota_qps must be > 0, got {quota_qps}")
        self.max_pending = max_pending
        self.quota_qps = quota_qps
        self.quota_burst = (
            max(1.0, 2.0 * quota_qps) if quota_qps is not None else None
        )
        self._clock = clock
        self._recorder = recorder
        self._lock = threading.Lock()
        self._pending = 0
        self._buckets: OrderedDict[str, TokenBucket] = OrderedDict()
        self.admitted = 0
        self.shed = {"queue": 0, "quota": 0}

    @property
    def recorder(self):
        return self._recorder if self._recorder is not None else current_recorder()

    @property
    def pending(self) -> int:
        return self._pending

    def _bucket(self, source: str) -> TokenBucket:
        with self._lock:
            bucket = self._buckets.get(source)
            if bucket is None:
                bucket = TokenBucket(
                    rate_per_s=self.quota_qps,
                    burst=self.quota_burst,
                    clock=self._clock,
                )
                self._buckets[source] = bucket
                while len(self._buckets) > MAX_TRACKED_SOURCES:
                    self._buckets.popitem(last=False)
            else:
                self._buckets.move_to_end(source)
            return bucket

    def _shed(self, reason: str, message: str, source: str | None) -> LoadShedError:
        with self._lock:
            self.shed[reason] += 1
        recorder = self.recorder
        recorder.count("admission.shed")
        recorder.count(f"admission.shed.{reason}")
        return LoadShedError(reason, message, source=source)

    @contextmanager
    def admit(self, source: str | None = None, cost: int = 1) -> Iterator[None]:
        """Admit ``cost`` units of work for ``source`` or raise LoadShedError."""
        cost = max(1, int(cost))
        if self.max_pending is not None:
            with self._lock:
                if self._pending + cost > self.max_pending:
                    pending = self._pending
                    admitted = False
                else:
                    self._pending += cost
                    admitted = True
            if not admitted:
                raise self._shed(
                    "queue",
                    f"admission queue full: {pending}+{cost} > {self.max_pending}",
                    source,
                )
        try:
            if self.quota_qps is not None:
                key = source if source else DEFAULT_SOURCE
                if not self._bucket(key).try_take(float(cost)):
                    raise self._shed(
                        "quota",
                        f"source {key!r} over quota ({self.quota_qps}/s)",
                        key,
                    )
            recorder = self.recorder
            recorder.count("admission.admitted", cost)
            if self.max_pending is not None:
                recorder.gauge("admission.pending", float(self._pending))
            with self._lock:
                self.admitted += cost
            yield
        finally:
            if self.max_pending is not None:
                with self._lock:
                    self._pending -= cost

    def stats(self) -> dict[str, object]:
        with self._lock:
            return {
                "max_pending": self.max_pending,
                "pending": self._pending,
                "quota_qps": self.quota_qps,
                "quota_burst": self.quota_burst,
                "sources": len(self._buckets),
                "admitted": self.admitted,
                "shed": dict(self.shed),
            }
