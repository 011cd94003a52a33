"""Circuit breaker: stop hammering a backend that keeps failing.

The shard router keeps one per replica: after ``failure_threshold``
consecutive failures the breaker *opens* and requests go to a sibling
replica instead of paying a doomed attempt per query.  After
``reset_after_s`` the breaker goes *half-open* and lets attempts
through again; one success closes it, one failure re-opens it.

State transitions are counted and gauged on an optional recorder
(``breaker.trips`` counter, ``breaker.state`` gauge with the numeric
encoding of :data:`STATE_VALUES`), so ``--trace`` output shows every
trip and recovery.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

STATE_VALUES = {CLOSED: 0.0, HALF_OPEN: 1.0, OPEN: 2.0}
"""Numeric encoding of states for the ``breaker.state`` gauge."""


class CircuitBreaker:
    """Consecutive-failure circuit breaker with timed half-open probes.

    Parameters
    ----------
    failure_threshold:
        Consecutive :meth:`record_failure` calls (while closed) that
        trip the breaker open.
    reset_after_s:
        Seconds the breaker stays open before allowing a half-open
        probe.
    clock:
        Monotonic clock; tests substitute a fake for deterministic
        timing.
    recorder:
        Optional :class:`repro.obs.Recorder` receiving the
        ``breaker.trips`` counter and ``breaker.state`` gauge (the
        gauge is also written once at construction so a trace always
        carries the breaker's latest state).

    Thread-safe: the serving engine is documented as safe to share
    across threads, so the breaker it embeds must be too.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_after_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        recorder=None,
    ):
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {failure_threshold}")
        if reset_after_s < 0:
            raise ValueError(f"reset_after_s must be >= 0, got {reset_after_s}")
        self.failure_threshold = failure_threshold
        self.reset_after_s = reset_after_s
        self._clock = clock
        self._recorder = recorder
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._trips = 0
        self._gauge()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """``closed``, ``open``, or ``half_open`` (reading may promote
        an expired ``open`` to ``half_open``)."""
        with self._lock:
            self._maybe_half_open()
            return self._state

    @property
    def trips(self) -> int:
        with self._lock:
            return self._trips

    def allow(self) -> bool:
        """True iff the guarded backend may be attempted right now."""
        with self._lock:
            self._maybe_half_open()
            return self._state != OPEN

    def record_success(self) -> None:
        """A guarded attempt succeeded: close and reset the failure count."""
        with self._lock:
            self._failures = 0
            if self._state != CLOSED:
                self._set_state(CLOSED)

    def record_failure(self) -> None:
        """A guarded attempt failed: trip when the threshold is reached
        (a half-open probe failure re-opens immediately)."""
        with self._lock:
            self._maybe_half_open()
            self._failures += 1
            if self._state == HALF_OPEN or (
                self._state == CLOSED and self._failures >= self.failure_threshold
            ):
                self._trips += 1
                self._opened_at = self._clock()
                self._set_state(OPEN)
                if self._recorder is not None:
                    self._recorder.count("breaker.trips")

    # ------------------------------------------------------------------
    # Internals (call with the lock held)
    # ------------------------------------------------------------------
    def _maybe_half_open(self) -> None:
        if (
            self._state == OPEN
            and self._clock() >= self._opened_at + self.reset_after_s
        ):
            self._set_state(HALF_OPEN)

    def _set_state(self, state: str) -> None:
        self._state = state
        self._gauge()

    def _gauge(self) -> None:
        if self._recorder is not None:
            self._recorder.gauge("breaker.state", STATE_VALUES[self._state])

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(state={self.state!r}, trips={self.trips}, "
            f"threshold={self.failure_threshold})"
        )
