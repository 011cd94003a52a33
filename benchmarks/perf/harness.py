"""Timing, statistics and bookkeeping shared by the four workloads."""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import resource
import statistics
import time
from typing import Any, Callable, Iterable, Sequence

import config

median = statistics.median


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; with few samples p99 is the maximum."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def best(per_pass: Sequence[float], better: str) -> float:
    """The best of repeated measurements of one thing: the smallest time,
    the largest rate.

    Each pass yields the statistic as the ISSUE defines it (a wall time, a
    p50, a p99, a rate); the run reports the best pass, not the median pass.
    The sizing host (a shared 2-core VM) alternates, every few seconds,
    between a normal state and one where the same instructions take 1.4x as
    long (wall time = CPU time in both, so it is the core, not the
    scheduler); the slow state held for 9 % to 64 % of a 30 s window.  A
    median over the two or three passes a run can afford lands in either
    state and moved by 30-40 % between runs of one commit; the best pass is
    what the program does when the host lets it, which is what a commit can
    change.  Pass counts are fixed, so no commit gets more draws than another.
    """
    return min(per_pass) if better == "lower" else max(per_pass)


def timed_passes(
    run_pass: Callable[[], Any],
    passes: int,
    deadline: float | None = None,
    warmup: bool = True,
) -> list[Any]:
    """Run ``run_pass`` once as a discarded warm-up, then ``passes`` timed
    times, and return the timed passes' results.

    With a ``deadline`` (a ``time.perf_counter`` value) the repeats stop
    early once it has passed, but never before ``MIN_TIMED_PASSES``: a time
    budget cuts pass counts, never what a pass does.  Garbage of the
    previous pass is collected between passes, outside any timing the pass
    takes itself.
    """
    if warmup:
        gc.collect()
        run_pass()
    results: list[Any] = []
    while len(results) < passes:
        spent = deadline is not None and time.perf_counter() >= deadline
        if spent and len(results) >= min(passes, config.MIN_TIMED_PASSES):
            break
        gc.collect()
        results.append(run_pass())
    return results


def timed(call: Callable[[], Any]) -> tuple[float, Any]:
    """``(wall seconds, result)`` of one call."""
    started = time.perf_counter()
    result = call()
    return time.perf_counter() - started, result


def timed_calls(call: Callable[[Any], Any], items: Iterable[Any]) -> tuple[list[float], list[Any]]:
    """Call ``call(item)`` per item: each call's latency in ms, and the results."""
    clock = time.perf_counter
    ms: list[float] = []
    out: list[Any] = []
    for item in items:
        started = clock()
        result = call(item)
        ms.append((clock() - started) * 1e3)
        out.append(result)
    return ms, out


def peak_rss_mb() -> float:
    """High-water RSS of this process (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_fingerprint() -> dict[str, Any]:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg_start": list(os.getloadavg()),
    }


def decision_key(decision: Any) -> tuple[Any, ...]:
    """What two engines must agree on for one query."""
    return (decision.kb2_uri, decision.rule, decision.score, decision.candidates)


def digest(values: Iterable[Any]) -> str:
    """Order-sensitive content hash of ``repr``-able values."""
    hasher = hashlib.blake2b(digest_size=12)
    for value in values:
        hasher.update(repr(value).encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


def f1_score(found: Iterable[tuple[Any, Any]], truth: set[tuple[Any, Any]]) -> float:
    """F1 of ``found`` pairs against ``truth`` pairs (0 when nothing is right)."""
    found = set(found)
    hit = len(found & truth)
    if not hit:
        return 0.0
    precision = hit / len(found)
    recall = hit / len(truth)
    return 2 * precision * recall / (precision + recall)


class Checker:
    """Counts attempted and failed operations; keeps the first failures."""

    KEPT = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def ran(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < self.KEPT:
            self.failures.append(message)

    def same(self, what: str, got: Sequence[Any], want: Sequence[Any]) -> None:
        """Every position where two decision-key lists differ is a failure."""
        if len(got) != len(want):
            self.fail(f"{what}: {len(got)} decisions against {len(want)}", max(len(got), len(want)))
            return
        for position, (a, b) in enumerate(zip(got, want)):
            if a != b:
                self.fail(f"{what}: query {position} gave {a!r}, oracle {b!r}")

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
