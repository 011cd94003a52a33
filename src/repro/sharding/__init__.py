"""Sharded, replicated, hedged serving over the memory-mapped index.

The online tier of :mod:`repro.serving` answers queries from one
process.  This package partitions the KB2 side of a
:class:`~repro.serving.index.ResolutionIndex` across N worker
processes and serves through a scatter/gather router, keeping the
decision stream **bit-identical** to the single-process engine:

* :class:`~repro.sharding.planner.ShardPlanner` cuts one built index
  into N per-shard columnar v3 files (``repro index --shards N``).
  Entities are hash-partitioned by URI (``crc32 % N``); every shard
  keeps the full token table plus the global per-token Entity
  Frequency, so block weights and purging thresholds are computed
  identically everywhere.  Each shard file is a fully valid
  ``ResolutionIndex`` -- the stock engine loads it unchanged and
  ``repro index --migrate`` rewrites it like any other v3 file.
* :class:`~repro.sharding.worker.ShardWorker` runs a ``MatchEngine``
  over one shard and answers *evidence* requests over length-prefixed
  frames (:mod:`repro.sharding.protocol`) on stdin/stdout.
* :class:`~repro.sharding.router.ShardRouter` fans queries and batches
  out to R replicas per shard (hedged after a p95-based delay, first
  answer wins, loser cancelled), merges per-shard top-K evidence under
  the global ``(-score, id)`` order (:mod:`repro.serving.merge`) and
  replays rules R1-R4 via the exact engine code path.  Shard failures
  degrade the answer (``degraded`` on the wire + an error record)
  instead of failing the query; per-replica circuit breakers and
  remaining-budget deadline decay come from :mod:`repro.resilience`.

See ``docs/sharding.md`` for the partitioning proof, the hedging
policy, the failure semantics and the wire protocol.
"""

from repro.serving.merge import merge_batch_evidence, merge_single_evidence
from repro.sharding.planner import ShardPlanner, partition_of, shard_paths
from repro.sharding.protocol import (
    ProtocolError,
    read_frame,
    snapshot_from_json,
    snapshot_to_json,
    write_frame,
)
from repro.sharding.router import (
    InlineReplica,
    LiveShardRouter,
    ProcessReplica,
    ShardFailure,
    ShardRouter,
)
from repro.sharding.worker import ShardWorker

__all__ = [
    "InlineReplica",
    "LiveShardRouter",
    "ProcessReplica",
    "ProtocolError",
    "ShardFailure",
    "ShardPlanner",
    "ShardRouter",
    "ShardWorker",
    "merge_batch_evidence",
    "merge_single_evidence",
    "partition_of",
    "read_frame",
    "shard_paths",
    "snapshot_from_json",
    "snapshot_to_json",
    "write_frame",
]
