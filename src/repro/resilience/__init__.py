"""Resilience: fault injection, retry/timeout policies, circuit breaking.

Failure is a first-class, observable, testable input (see
``docs/resilience.md``):

* :mod:`repro.resilience.faults` -- named injection sites raise or
  delay on a seeded schedule, activated ambiently with
  :func:`use_faults` (or the ``--chaos SPEC`` CLI flag) so chaos wires
  through any run without touching call sites;
* :mod:`repro.resilience.policy` -- :class:`RetryPolicy` (bounded
  attempts, exponential backoff, seeded jitter, retryable filter) and
  :class:`Deadline` (monotonic budgets passed down call chains), plus
  the :data:`FAILURE_MODES` of ``ParallelContext``;
* :mod:`repro.resilience.breaker` -- :class:`CircuitBreaker`, used by
  the shard router to stop sending requests to a replica after
  repeated faults.

Every retry, trip, expiry, skipped partition, and fired fault is
counted through the ambient :func:`repro.obs.current_recorder`
(``retry.attempts``, ``breaker.trips``/``breaker.state``,
``deadline.expired``, ``stage.skipped``, ``faults.injected.<site>``),
so ``--trace`` output shows resilience behaviour alongside spans.
"""

from repro.resilience.admission import (
    AdmissionController,
    LoadShedError,
    RetryBudget,
    TokenBucket,
)
from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN, STATE_VALUES, CircuitBreaker
from repro.resilience.faults import (
    SITES,
    FaultAction,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    current_faults,
    inject,
    parse_chaos,
    use_faults,
)
from repro.resilience.policy import (
    DEFAULT_RETRYABLE,
    FAILURE_MODES,
    Deadline,
    DeadlineExpired,
    RetryPolicy,
)
from repro.resilience.supervisor import ReplicaSupervisor

__all__ = [
    "CLOSED",
    "DEFAULT_RETRYABLE",
    "FAILURE_MODES",
    "HALF_OPEN",
    "OPEN",
    "SITES",
    "STATE_VALUES",
    "AdmissionController",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExpired",
    "FaultAction",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "LoadShedError",
    "ReplicaSupervisor",
    "RetryBudget",
    "RetryPolicy",
    "TokenBucket",
    "current_faults",
    "inject",
    "parse_chaos",
    "use_faults",
]
