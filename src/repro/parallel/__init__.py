"""Spark-like parallel execution substrate.

The paper implements MinoanER on Apache Spark (section 4.1, Figure 4):
work is split into partitions processed by independent workers, with
explicit synchronisation barriers between the four matching rules and
the graph-construction stages.  This package reproduces that execution
model at laptop scale:

* :class:`~repro.parallel.context.ParallelContext` -- named stages
  executed over partitioned inputs by a serial, thread or process
  backend, with per-stage timing (the barriers of Figure 4 are the
  stage boundaries);
* :class:`~repro.parallel.pipeline.ParallelMinoanER` -- the
  stage-parallel MinoanER pipeline, which produces exactly the same
  blocking graph and matches as the serial
  :class:`repro.core.pipeline.MinoanER`.
"""

from repro.parallel.context import ParallelContext, StageRecord, simulated_makespan
from repro.parallel.pipeline import ParallelMinoanER

__all__ = [
    "ParallelContext",
    "ParallelMinoanER",
    "StageRecord",
    "simulated_makespan",
]
