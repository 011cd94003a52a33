"""Retry and deadline policies: the knobs of graceful degradation.

Two small primitives shared by the parallel and serving stacks:

* :class:`RetryPolicy` -- bounded attempts with exponential backoff and
  *seeded* jitter, plus a retryable-exception filter.  Spark retries a
  failed task a fixed number of times before failing the stage; this is
  that contract, deterministic enough to test (two policies built with
  the same seed sleep the same schedule).
* :class:`Deadline` -- a monotonic time budget created once at the top
  of a call chain and passed down, so every layer asks the same clock
  "how much budget is left" instead of each inventing its own timeout.

:data:`FAILURE_MODES` names the three stage-failure behaviours of
:class:`repro.parallel.context.ParallelContext`: ``fail_fast`` (first
partition failure aborts the stage -- the historical behaviour),
``retry`` (failed partitions are retried per policy, then the stage
fails), and ``degrade`` (exhausted partitions are *skipped* and
recorded, and the pipeline produces a partial, explicitly-flagged
result).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, TypeVar

from repro.resilience.faults import FaultInjected

Value = TypeVar("Value")

FAILURE_MODES = ("fail_fast", "retry", "degrade")
"""Accepted values of ``MinoanERConfig.failure_mode`` and
``ParallelContext(failure_mode=...)``."""

RETRY_BASE_DELAY_S = 0.01
"""First backoff of a retry under ``failure_mode = "retry"``: the
pipelines' phases (``repro.core.pipeline``) and the shard router's
requests (``repro.sharding.router``) wait this long before retry 1,
doubling after."""

DEFAULT_RETRYABLE: tuple[type[BaseException], ...] = (
    FaultInjected,
    TimeoutError,
    ConnectionError,
    InterruptedError,
    BrokenPipeError,
)
"""Exception types treated as transient by default: injected faults and
the OS-level errors a lost worker or flaky filesystem produces."""


class DeadlineExpired(RuntimeError):
    """Raised by :meth:`Deadline.check` once the budget is spent."""


class Deadline:
    """A monotonic time budget, created once and passed down a call chain.

    >>> deadline = Deadline(60.0)
    >>> deadline.expired()
    False
    >>> Deadline(0.0, clock=lambda: 5.0).remaining()
    0.0

    ``clock`` defaults to :func:`time.monotonic`; tests substitute a
    fake clock for deterministic expiry.
    """

    __slots__ = ("_clock", "_expires_at", "budget_s")

    def __init__(self, seconds: float, clock: Callable[[], float] = time.monotonic):
        if seconds < 0:
            raise ValueError(f"deadline budget must be >= 0, got {seconds}")
        self.budget_s = seconds
        self._clock = clock
        self._expires_at = clock() + seconds

    @classmethod
    def after_ms(cls, milliseconds: float) -> "Deadline":
        """A deadline ``milliseconds`` from now (the serving-config unit)."""
        return cls(milliseconds / 1e3)

    def remaining(self) -> float:
        """Seconds of budget left (never negative)."""
        return max(0.0, self._expires_at - self._clock())

    def expired(self) -> bool:
        return self._clock() >= self._expires_at

    def check(self, label: str = "") -> None:
        """Raise :class:`DeadlineExpired` if the budget is spent.

        Call at natural checkpoints between units of work; ``label``
        names the work that would have run next, for the error message.
        """
        if self.expired():
            where = f" before {label}" if label else ""
            raise DeadlineExpired(
                f"deadline of {self.budget_s * 1e3:.3f}ms expired{where}"
            )

    def __repr__(self) -> str:
        return f"Deadline(budget_s={self.budget_s}, remaining_s={self.remaining():.6f})"


class RetryPolicy:
    """Bounded retries with exponential backoff and seeded jitter.

    Parameters
    ----------
    max_attempts:
        Total attempts including the first (so ``3`` means up to two
        retries).
    base_delay_s / max_delay_s:
        Backoff before retry ``n`` (1-based) is
        ``min(max_delay_s, base_delay_s * 2**(n-1))`` plus jitter.
    jitter_ratio:
        Each backoff is stretched by up to this fraction, drawn from a
        RNG seeded with ``seed`` -- two policies with equal parameters
        sleep identical schedules, which keeps chaos tests
        deterministic while still de-synchronising real retry storms.
    retryable:
        Exception types worth retrying; everything else propagates
        immediately (a ``ValueError`` from bad input will never succeed
        on attempt two).
    """

    def __init__(
        self,
        max_attempts: int = 3,
        base_delay_s: float = 0.05,
        max_delay_s: float = 2.0,
        jitter_ratio: float = 0.1,
        seed: int = 0,
        retryable: tuple[type[BaseException], ...] = DEFAULT_RETRYABLE,
    ):
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if base_delay_s < 0 or max_delay_s < 0:
            raise ValueError("delays must be >= 0")
        if not 0.0 <= jitter_ratio <= 1.0:
            raise ValueError(f"jitter_ratio must be in [0, 1], got {jitter_ratio}")
        self.max_attempts = max_attempts
        self.base_delay_s = base_delay_s
        self.max_delay_s = max_delay_s
        self.jitter_ratio = jitter_ratio
        self.seed = seed
        self.retryable = retryable
        self._lock = threading.Lock()
        import random

        self._rng = random.Random(seed)

    def is_retryable(self, error: BaseException) -> bool:
        return isinstance(error, self.retryable)

    def backoff_s(self, attempt: int) -> float:
        """Sleep before the retry following failed attempt ``attempt``."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        delay = min(self.max_delay_s, self.base_delay_s * (2.0 ** (attempt - 1)))
        if self.jitter_ratio:
            with self._lock:
                delay *= 1.0 + self.jitter_ratio * self._rng.random()
        return delay

    def call(
        self,
        thunk: Callable[[], Value],
        on_retry: Callable[[int, BaseException], Any] | None = None,
        deadline: "Deadline | None" = None,
        budget: "Any | None" = None,
    ) -> Value:
        """Run ``thunk`` under this policy and return its value.

        ``on_retry(attempt, error)`` fires before each backoff sleep
        (attempt is the 1-based attempt that just failed) -- the hook
        the callers use to count ``retry.attempts`` on their recorder.
        Non-retryable errors and the final failure propagate unchanged.

        ``deadline`` bounds the retry loop to its remaining budget: an
        already-expired deadline suppresses further retries (the last
        error propagates), and every backoff sleep is clamped to
        ``deadline.remaining()`` so a retry never sleeps past the very
        deadline its caller is trying to honour.

        ``budget`` is an optional :class:`~repro.resilience.admission.RetryBudget`
        consulted (``allow_retry()``) before each retry; an exhausted
        budget propagates the last error immediately, which is what
        stops retry amplification when a downstream shard is struggling.
        """
        attempt = 0
        while True:
            attempt += 1
            try:
                return thunk()
            except Exception as error:
                if not self.is_retryable(error) or attempt >= self.max_attempts:
                    raise
                if deadline is not None and deadline.expired():
                    raise
                if budget is not None and not budget.allow_retry():
                    raise
                if on_retry is not None:
                    on_retry(attempt, error)
                delay = self.backoff_s(attempt)
                if deadline is not None:
                    delay = min(delay, deadline.remaining())
                if delay > 0:
                    time.sleep(delay)

    def __repr__(self) -> str:
        return (
            f"RetryPolicy(max_attempts={self.max_attempts}, "
            f"base_delay_s={self.base_delay_s}, seed={self.seed})"
        )
