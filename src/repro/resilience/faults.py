"""Deterministic fault injection: named sites, seeded schedules.

Production failure modes -- a worker dying mid-partition, a kernel
backend segfaulting, a slow query, a garbage request line -- are rare
and non-reproducible exactly when a test needs them.  This module makes
failure an *input*: instrumented code calls :func:`inject` at a named
**injection site**, and an ambient :class:`FaultPlan` (installed with
:func:`use_faults`, exactly like ``repro.obs.use_recorder``) decides,
deterministically, whether that call raises :class:`FaultInjected` or
sleeps for a configured delay.  With no plan installed the call is a
single ``ContextVar`` read -- cheap enough to leave in the hot paths.

Sites are hierarchical strings (``stage:graph:beta``,
``kernel:numpy``, ``serve:match``, ``io:read_requests``; the canonical
catalogue is :data:`SITES`) and plans address them with glob patterns,
so ``stage:*=error*2`` means "the first two stage-partition executions
anywhere fail".  Every fired fault is counted on the ambient
:func:`repro.obs.current_recorder` under ``faults.injected.<site>``,
so a ``--trace`` run shows exactly which faults fired where.

The ``--chaos SPEC`` CLI flag parses into a plan via
:func:`parse_chaos`::

    SPEC    := entry (',' entry)*
    entry   := SITE_GLOB '=' action
    action  := ('error' | 'delay' ':' SECONDS) ['*' TIMES] ['@' PROBABILITY]

Examples: ``stage:*=error*2`` (first two matching executions raise),
``serve:match=delay:0.05`` (every query sleeps 50 ms),
``kernel:numpy=error@0.5`` (each kernel dispatch or serving kernel
call fails with seeded probability one half).  ``TIMES`` bounds the *spec*, not each site: a
glob spec firing twice is exhausted after two fires total.
"""

from __future__ import annotations

import fnmatch
import random
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Sequence


class FaultInjected(RuntimeError):
    """The error raised by an ``error``-kind injection.

    Deliberately a distinct type: retry policies treat it as transient
    by default, and tests can assert that a propagated failure really
    came from the chaos plan rather than a genuine bug.
    """


SITES: dict[str, str] = {
    "stage:statistics": "per-KB statistics phase (serial + parallel driver)",
    "stage:token_blocking": "token blocking + purging phase (serial + parallel driver)",
    "stage:graph": "serial graph-construction phase",
    "stage:matching": "serial matching phase",
    "stage:graph:beta": "one node range of the value-evidence stage",
    "stage:graph:gamma": "one node range of the neighbor-evidence stage",
    "stage:match:R2": "one partition of the R2 rule stage",
    "stage:match:R3_side1": "one partition of the R3 rule stage (side 1)",
    "stage:match:R3_side2": "one partition of the R3 rule stage (side 2)",
    "kernel:numpy": "one kernel dispatch (get_backend) or serving-engine kernel call",
    "serve:match": "one single-query lookup in MatchEngine.match",
    "serve:batch": "one batch lookup in MatchEngine.match_batch",
    "io:read_requests": "parsing one JSONL request line",
    "live:compact": "one live-index compaction (manual or scheduled)",
}
"""Catalogue of the registered injection sites (see docs/resilience.md).

Every ``ParallelContext`` stage additionally exposes a dynamic
``stage:<stage name>`` site, drawn once per partition *attempt*, so
plans can target stages this catalogue does not enumerate.
"""


@dataclass(frozen=True)
class FaultAction:
    """One drawn fault, ready to apply inside the faulted code path.

    Frozen and picklable: the parallel driver draws actions on the
    driver (where the ambient plan and its counters live) and ships
    them to worker processes, which only :meth:`apply` them -- shared
    schedule state never crosses the process boundary.
    """

    site: str
    kind: str  # "error" | "delay"
    delay_s: float = 0.0

    def apply(self) -> None:
        """Raise :class:`FaultInjected` or sleep, per ``kind``."""
        if self.kind == "delay":
            time.sleep(self.delay_s)
        else:
            raise FaultInjected(f"injected fault at {self.site}")


@dataclass(frozen=True)
class FaultSpec:
    """One schedule entry: which sites, what fault, how often.

    ``times`` bounds total fires of this spec (``None`` = unlimited);
    ``probability`` gates each otherwise-firing draw through the plan's
    seeded RNG.
    """

    site: str
    kind: str
    delay_s: float = 0.0
    times: int | None = None
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("error", "delay"):
            raise ValueError(f"fault kind must be 'error' or 'delay', got {self.kind!r}")
        if self.kind == "delay" and self.delay_s < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay_s}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1 or None, got {self.times}")
        if not 0.0 < self.probability <= 1.0:
            raise ValueError(f"probability must be in (0, 1], got {self.probability}")


class FaultPlan:
    """A seeded, thread-safe schedule of faults over injection sites.

    :meth:`draw` is the single decision point: given a site name it
    walks the specs in order, fires the first one that matches and
    still has budget, and returns the :class:`FaultAction` to apply
    (or ``None``).  All mutable state (per-spec fire counts, the RNG)
    lives behind one lock, so a plan shared by the driver thread and a
    thread-pool backend stays consistent; determinism holds whenever
    draws happen in a deterministic order (the parallel driver draws
    on the driver thread, in partition order, for exactly this reason).
    """

    def __init__(self, specs: Sequence[FaultSpec], seed: int = 0):
        self.specs = tuple(specs)
        self.seed = seed
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._spec_fired = [0] * len(self.specs)
        self._site_fired: dict[str, int] = {}

    def draw(self, site: str) -> FaultAction | None:
        """The fault to apply at ``site`` for this execution, if any.

        Counts the fire per spec and per site, and increments
        ``faults.injected.<site>`` on the ambient recorder.
        """
        action: FaultAction | None = None
        with self._lock:
            for position, spec in enumerate(self.specs):
                if not fnmatch.fnmatchcase(site, spec.site):
                    continue
                if spec.times is not None and self._spec_fired[position] >= spec.times:
                    continue
                if spec.probability < 1.0 and self._rng.random() >= spec.probability:
                    continue
                self._spec_fired[position] += 1
                self._site_fired[site] = self._site_fired.get(site, 0) + 1
                action = FaultAction(site=site, kind=spec.kind, delay_s=spec.delay_s)
                break
        if action is not None:
            from repro.obs import current_recorder

            current_recorder().count(f"faults.injected.{site}")
        return action

    def fired(self) -> dict[str, int]:
        """Fires so far, by site name."""
        with self._lock:
            return dict(self._site_fired)

    def total_fired(self) -> int:
        with self._lock:
            return sum(self._site_fired.values())

    def exhausted(self) -> bool:
        """True iff every bounded spec has fired its full budget."""
        with self._lock:
            return all(
                spec.times is not None and fired >= spec.times
                for spec, fired in zip(self.specs, self._spec_fired)
            )

    def __repr__(self) -> str:
        return f"FaultPlan(specs={len(self.specs)}, seed={self.seed}, fired={self.total_fired()})"


def parse_chaos(spec: str, seed: int = 0) -> FaultPlan:
    """Parse a ``--chaos`` specification string into a :class:`FaultPlan`.

    >>> plan = parse_chaos("stage:*=error*2,serve:match=delay:0.05")
    >>> [(s.site, s.kind, s.times) for s in plan.specs]
    [('stage:*', 'error', 2), ('serve:match', 'delay', None)]
    >>> parse_chaos("kernel:numpy=error@0.5", seed=7).specs[0].probability
    0.5
    """
    specs: list[FaultSpec] = []
    for raw_entry in spec.split(","):
        entry = raw_entry.strip()
        if not entry:
            continue
        site, separator, action = entry.partition("=")
        site = site.strip()
        action = action.strip()
        if not separator or not site or not action:
            raise ValueError(
                f"bad chaos entry {entry!r}: expected SITE=ACTION "
                f"(e.g. 'stage:*=error*2', 'serve:match=delay:0.05')"
            )
        probability = 1.0
        if "@" in action:
            action, _, raw_probability = action.rpartition("@")
            try:
                probability = float(raw_probability)
            except ValueError:
                raise ValueError(
                    f"bad probability {raw_probability!r} in chaos entry {entry!r}"
                ) from None
        times: int | None = None
        if "*" in action:
            action, _, raw_times = action.rpartition("*")
            try:
                times = int(raw_times)
            except ValueError:
                raise ValueError(
                    f"bad repeat count {raw_times!r} in chaos entry {entry!r}"
                ) from None
        kind, _, raw_delay = action.partition(":")
        delay_s = 0.0
        if kind == "delay":
            try:
                delay_s = float(raw_delay)
            except ValueError:
                raise ValueError(
                    f"bad delay {raw_delay!r} in chaos entry {entry!r}"
                ) from None
        elif kind != "error" or raw_delay:
            raise ValueError(
                f"bad action {action!r} in chaos entry {entry!r}: "
                f"expected 'error' or 'delay:SECONDS'"
            )
        try:
            specs.append(
                FaultSpec(
                    site=site, kind=kind, delay_s=delay_s,
                    times=times, probability=probability,
                )
            )
        except ValueError as error:
            raise ValueError(f"bad chaos entry {entry!r}: {error}") from None
    if not specs:
        raise ValueError(f"chaos spec {spec!r} contains no entries")
    return FaultPlan(specs, seed=seed)


_CURRENT: ContextVar[FaultPlan | None] = ContextVar("repro_fault_plan", default=None)


def current_faults() -> FaultPlan | None:
    """The ambient fault plan installed by :func:`use_faults`, if any."""
    return _CURRENT.get()


@contextmanager
def use_faults(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` as the ambient fault plan for the block.

    Instrumented components (pipelines, parallel stages, kernel
    dispatch, the serving engine and JSONL reader) consult
    :func:`current_faults` at their injection sites.  Nesting restores
    the previous plan on exit.
    """
    token = _CURRENT.set(plan)
    try:
        yield plan
    finally:
        _CURRENT.reset(token)


def inject(site: str) -> None:
    """Fire the ambient plan's fault at ``site``, if one is scheduled.

    The no-plan path is a single ``ContextVar`` read, so instrumented
    hot paths stay effectively free when chaos is off.
    """
    plan = _CURRENT.get()
    if plan is None:
        return
    action = plan.draw(site)
    if action is not None:
        action.apply()
