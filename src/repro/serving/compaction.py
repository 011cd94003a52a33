"""Background compaction: size- and tombstone-ratio-triggered folds.

PR 8 made compaction correct (byte-identical to a cold rebuild, served
through a zero-drop swap); it stayed *manual* -- an in-band control
record or ``repro index --compact``.  :class:`CompactionScheduler`
closes the ROADMAP's "background/scheduled compaction" rung: a daemon
thread that watches a live engine's delta overlay and folds it into a
fresh base when either trigger fires:

* **size** -- the overlay holds at least ``max_delta`` edits
  (allocated delta slots + dead base ids: the quantity that grows
  per-query overlay work; a sharded tier answers in-process, not over
  its workers, until the fold);
* **tombstones** -- dead entities exceed ``max_tombstone_ratio`` of
  the id space (the quantity that wastes candidate-set work on
  excluded ids).

The scheduler holds **no lock of its own**: it calls
``engine.compact()``, which runs under the engine's writer-preferred
drain gate exactly like an operator-issued compaction, so queries
never observe a half-swapped index.  Mutations poke the scheduler (via
``LiveServingMixin._mutate``) so triggers fire promptly; the poll
interval is only a fallback.

**Failure isolation**: a compaction that raises (chaos site
``live:compact``, disk full, kernel error) is counted
(``compaction.failures``), remembered (:attr:`last_error`), and retried
no sooner than ``failure_backoff_s`` later -- and because
``LiveServingMixin.compact`` bumps the generation only after the swap
completes, the failed attempt leaves the live generation serving
untouched.  ``min_interval_s`` throttles healthy compactions so a
steady write load cannot turn the scheduler into a rebuild loop.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Any, Callable

DEFAULT_INTERVAL_S = 0.25
DEFAULT_MIN_INTERVAL_S = 1.0
DEFAULT_FAILURE_BACKOFF_S = 2.0

__all__ = ["CompactionScheduler"]


class CompactionScheduler:
    """Watch a live engine and compact when a trigger fires.

    Parameters
    ----------
    engine:
        A :class:`~repro.serving.live.LiveServingMixin` engine (or the
        sharded ``LiveShardRouter``) -- anything with ``index`` (a
        ``LiveIndex``), ``compact(path)`` and ``recorder``.
    max_delta / max_tombstone_ratio:
        The two triggers; ``None`` disables one.  At least one must be
        set.
    path:
        Where compactions are written (default: the engine's
        ``index_path``; ``None`` keeps folds in memory).
    interval_s / min_interval_s / failure_backoff_s:
        Poll period, minimum spacing between successful compactions,
        and minimum spacing after a failed one.
    clock:
        Injected monotonic clock for deterministic tests; the thread
        still sleeps on real time.
    """

    def __init__(
        self,
        engine: Any,
        max_delta: int | None = None,
        max_tombstone_ratio: float | None = None,
        path: str | Path | None = None,
        interval_s: float = DEFAULT_INTERVAL_S,
        min_interval_s: float = DEFAULT_MIN_INTERVAL_S,
        failure_backoff_s: float = DEFAULT_FAILURE_BACKOFF_S,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_delta is None and max_tombstone_ratio is None:
            raise ValueError("need max_delta and/or max_tombstone_ratio")
        if max_delta is not None and max_delta < 1:
            raise ValueError(f"max_delta must be >= 1, got {max_delta}")
        if max_tombstone_ratio is not None and not 0.0 < max_tombstone_ratio <= 1.0:
            raise ValueError(
                f"max_tombstone_ratio must be in (0, 1], got {max_tombstone_ratio}"
            )
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.engine = engine
        self.max_delta = max_delta
        self.max_tombstone_ratio = max_tombstone_ratio
        self.path = Path(path) if path is not None else None
        self.interval_s = interval_s
        self.min_interval_s = min_interval_s
        self.failure_backoff_s = failure_backoff_s
        self._clock = clock
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._last_attempt: float | None = None
        self._not_before = 0.0
        self.compactions = 0
        self.failures = 0
        self.last_error: str | None = None
        self.last_reason: str | None = None

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "CompactionScheduler":
        """Start the background thread (idempotent) and register the
        mutation poke on the engine."""
        self.engine.compaction = self
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="compaction-scheduler", daemon=True
            )
            self._thread.start()
        return self

    def close(self) -> None:
        self._stop.set()
        self._wake.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=30.0)
            self._thread = None
        if getattr(self.engine, "compaction", None) is self:
            self.engine.compaction = None

    def __enter__(self) -> "CompactionScheduler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def poke(self) -> None:
        """Wake the scheduler early (called after every mutation)."""
        self._wake.set()

    def _run(self) -> None:
        while True:
            self._wake.wait(self.interval_s)
            self._wake.clear()
            if self._stop.is_set():
                return
            self.tick()

    # -- the decision --------------------------------------------------

    def due(self) -> str | None:
        """The trigger that currently fires (``"delta"`` |
        ``"tombstones"``) or ``None``."""
        live = self.engine.index
        if self.max_delta is not None:
            pending = live.delta.allocated + len(live.delta.dead_base)
            if pending >= self.max_delta:
                return "delta"
        if self.max_tombstone_ratio is not None:
            tombstones = live.tombstone_count
            if tombstones and tombstones / max(1, live.id_space) >= (
                self.max_tombstone_ratio
            ):
                return "tombstones"
        return None

    def tick(self) -> bool:
        """One synchronous scheduling decision; True when a compaction
        ran and succeeded.  Public so tests can drive the scheduler
        deterministically without the thread."""
        now = self._clock()
        if now < self._not_before:
            return False
        reason = self.due()
        if reason is None:
            return False
        recorder = getattr(self.engine, "recorder", None)
        self._last_attempt = now
        try:
            self.engine.compact(self.path)
        except Exception as error:
            self.failures += 1
            self.last_error = f"{type(error).__name__}: {error}"
            self._not_before = now + self.failure_backoff_s
            if recorder is not None:
                recorder.count("compaction.failures")
            return False
        self.compactions += 1
        self.last_reason = reason
        self.last_error = None
        self._not_before = now + self.min_interval_s
        if recorder is not None:
            recorder.count("compaction.auto")
            recorder.count(f"compaction.auto.{reason}")
        return True

    # -- introspection -------------------------------------------------

    def stats(self) -> dict[str, object]:
        return {
            "max_delta": self.max_delta,
            "max_tombstone_ratio": self.max_tombstone_ratio,
            "compactions": self.compactions,
            "failures": self.failures,
            "last_reason": self.last_reason,
            "last_error": self.last_error,
        }

    def __repr__(self) -> str:
        return (
            f"CompactionScheduler(max_delta={self.max_delta}, "
            f"max_tombstone_ratio={self.max_tombstone_ratio}, "
            f"compactions={self.compactions}, failures={self.failures})"
        )
