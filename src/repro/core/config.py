"""Configuration of the MinoanER pipeline.

The paper's sensitivity analysis (Figure 5) varies four parameters and
recommends the global default ``(k, K, N, theta) = (2, 15, 3, 0.6)``,
which is also the default here.  The remaining fields expose an
ablation used in its evaluation (rule toggles, purging, dynamic
pruning) or tune the serving and resilience layers built around it.
The paper's fixed design decisions are constants beside their one
reader, not fields: R2's ``beta >= 1`` (``repro.core.rules``), the ~1%
purging budget (``repro.blocking.purging``), the adaptive cut's gap
ratio (``repro.graph.pruning``) and Unique Mapping Clustering, which
always runs; so is the first retry backoff
(``repro.resilience.policy``).  A knob stays only while a caller outside the tests sets
it or a workload shows a non-default value winning (``DESIGN.md``,
"Knobs").

A field lives here only if the library reads it as ``config.<field>``
(``tests/core/test_config.py`` checks this).  Settings that one
command-line subcommand reads straight after parsing (``serve``'s
``--batch-size``, ``--shards``, ``--replicas`` and ``--auto-compact-*``)
stay flags of that subcommand, and recording is switched off by passing
``recorder=NULL_RECORDER`` to the pipeline or engine, not by a field.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Mapping


@dataclass(frozen=True)
class MinoanERConfig:
    """Every knob the MinoanER pipelines and serving tier read.

    Parameters
    ----------
    name_attributes_k:
        ``k``: globally most important literal attributes per KB whose
        values act as entity names (section 2.2).
    candidates_k:
        ``K``: edges kept per node per evidence type when pruning the
        blocking graph (section 3.3).
    relations_n:
        ``N``: most important relations per entity defining its top
        neighbors (section 2.2).
    theta:
        Trade-off between value-based and neighbor-based rankings in
        rule R3; the beta list is weighted ``theta`` and the gamma list
        ``1 - theta`` (section 4).
    purge_blocks:
        Block Purging of oversized token blocks (section 3.3): retained
        token blocks may suggest at most ~1% of the brute-force
        ``|E1|*|E2|`` comparisons.
    use_name_rule / use_value_rule / use_rank_aggregation / use_reciprocity:
        Rule toggles for the Table 4 ablations.
    use_neighbor_evidence:
        When False, gamma weights are not computed and R3 ranks by value
        evidence alone ("contribution of neighbors" ablation, Table 4).
    dynamic_pruning:
        Replace the fixed top-K candidate retention with the adaptive
        per-node cut of the paper's future work (section 7): each node's
        list is truncated at the first large weight gap in its local
        similarity distribution.
    serving_cache_size:
        Capacity of the :class:`repro.serving.cache.LRUCache` holding
        single-query decisions, keyed by entity content fingerprint
        (0 disables caching).
    failure_mode / retry_max_attempts:
        Stage-failure behaviour of the pipelines (see
        ``docs/resilience.md``): ``fail_fast`` aborts on the first
        failure (the historical behaviour), ``retry`` re-runs failed
        work up to ``retry_max_attempts`` total attempts with
        exponential backoff starting at
        ``repro.resilience.policy.RETRY_BASE_DELAY_S``, and
        ``degrade`` additionally skips exhausted stage partitions,
        producing a partial result whose holes are enumerated in
        ``ResolutionResult.degraded``.
    serving_deadline_ms:
        Per-query time budget of the serving engine.  ``None`` (the
        default) serves without deadlines; with a budget, a query that
        exceeds it mid-pipeline receives a *degraded* name-evidence-only
        answer flagged ``degraded=true`` instead of blocking the
        stream.
    serving_max_pending / serving_quota_qps:
        Admission control of the serving engine
        (``docs/resilience.md``).  ``serving_max_pending`` bounds the
        summed cost of queries inside the engine at once;
        ``serving_quota_qps`` rate-limits each traffic source through a
        token bucket of ``max(1, 2 * qps)`` capacity.  Both default
        off; rejections surface as explicit load-shed error records,
        never silent drops.
    provenance_sample_rate:
        Fraction of serving queries that carry a full
        :class:`repro.obs.ProvenanceRecord` (fired rule, evidence type,
        candidate-set size, top scores) on the wire.  0.0 (the default)
        disables provenance; sampling is deterministic (systematic over
        the query sequence), so replayed request streams sample the
        same queries.  Every query gets a ``trace_id`` regardless.
    """

    name_attributes_k: int = 2
    candidates_k: int = 15
    relations_n: int = 3
    theta: float = 0.6
    purge_blocks: bool = True
    use_name_rule: bool = True
    use_value_rule: bool = True
    use_rank_aggregation: bool = True
    use_reciprocity: bool = True
    use_neighbor_evidence: bool = True
    dynamic_pruning: bool = False
    serving_cache_size: int = 1024
    provenance_sample_rate: float = 0.0
    failure_mode: str = "fail_fast"
    retry_max_attempts: int = 3
    serving_deadline_ms: float | None = None
    serving_max_pending: int | None = None
    serving_quota_qps: float | None = None

    def __post_init__(self) -> None:
        if self.name_attributes_k < 0:
            raise ValueError(f"name_attributes_k must be >= 0, got {self.name_attributes_k}")
        if self.candidates_k < 1:
            raise ValueError(f"candidates_k must be >= 1, got {self.candidates_k}")
        if self.relations_n < 0:
            raise ValueError(f"relations_n must be >= 0, got {self.relations_n}")
        if not 0.0 < self.theta < 1.0:
            raise ValueError(f"theta must be in (0, 1), got {self.theta}")
        if self.serving_cache_size < 0:
            raise ValueError(
                f"serving_cache_size must be >= 0, got {self.serving_cache_size}"
            )
        if not 0.0 <= self.provenance_sample_rate <= 1.0:
            raise ValueError(
                f"provenance_sample_rate must be in [0, 1], "
                f"got {self.provenance_sample_rate}"
            )
        from repro.resilience.policy import FAILURE_MODES

        if self.failure_mode not in FAILURE_MODES:
            raise ValueError(
                f"failure_mode must be one of {FAILURE_MODES}, "
                f"got {self.failure_mode!r}"
            )
        if self.retry_max_attempts < 1:
            raise ValueError(
                f"retry_max_attempts must be >= 1, got {self.retry_max_attempts}"
            )
        if self.serving_deadline_ms is not None and self.serving_deadline_ms <= 0:
            raise ValueError(
                f"serving_deadline_ms must be > 0 or None, "
                f"got {self.serving_deadline_ms}"
            )
        if self.serving_max_pending is not None and self.serving_max_pending < 1:
            raise ValueError(
                f"serving_max_pending must be >= 1 or None, "
                f"got {self.serving_max_pending}"
            )
        if self.serving_quota_qps is not None and self.serving_quota_qps <= 0:
            raise ValueError(
                f"serving_quota_qps must be > 0 or None, "
                f"got {self.serving_quota_qps}"
            )

    def with_options(self, **changes: Any) -> "MinoanERConfig":
        """A copy with the given fields replaced (validation re-runs).

        >>> MinoanERConfig().with_options(theta=0.5).theta
        0.5
        """
        return replace(self, **changes)


PAPER_DEFAULT = MinoanERConfig()
"""The paper's suggested global configuration (k, K, N, theta) = (2, 15, 3, 0.6)."""


def config_to_dict(config: MinoanERConfig) -> dict[str, Any]:
    """JSON-serialisable dict of all config fields.

    Inverse of :func:`config_from_dict`; used by the columnar index
    header (``repro.serving.format``) so a loaded index reconstructs an
    equal :class:`MinoanERConfig` without pickling it.
    """
    return {spec.name: getattr(config, spec.name) for spec in fields(config)}


def config_from_dict(data: Mapping[str, Any]) -> MinoanERConfig:
    """Rebuild a :class:`MinoanERConfig` from :func:`config_to_dict` output.

    Unknown keys are ignored (an index written by a build with extra
    or since-removed knobs still loads) and missing keys take defaults.
    """
    known = {spec.name for spec in fields(MinoanERConfig)}
    return MinoanERConfig(**{key: value for key, value in data.items() if key in known})
