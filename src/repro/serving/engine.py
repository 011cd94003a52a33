"""Query-time resolution over a frozen :class:`ResolutionIndex`.

Two entry points, one design: **prelude -> evidence seam -> merge ->
rules**.

* *Prelude* (query-side, cheap): the queries become the query-side KB
  of Algorithm 1, name evidence (``alpha``) is looked up in the index's
  name map, and the shared tokens are purged of stopword-like blocks by
  the one purging rule (:meth:`MatchEngine._retained_tokens`).
* *Evidence seam*: two methods that turn purged tokens into value
  (``beta``) candidates -- :meth:`MatchEngine._single_values` and
  :meth:`MatchEngine._batch_values` -- and the only thing the shard
  routers override.  Here they read the engine's own index: the fused
  single-row kernel (``row_evidence``, consuming mapped posting slices
  zero-copy) and the interned ``value_topk`` batch kernel.
* *Merge* (:mod:`repro.serving.merge`): per-source evidence re-ranked
  under ``(-score, id)``; the unsharded engine is its one-source case.
* *Rules* R1-R4 run here and only here, whatever produced the
  candidates: :func:`apply_single_rules` in a query-local form whose
  reciprocity checks touch nothing outside the candidate set, the batch
  matcher over the assembled blocking graph.

:meth:`MatchEngine.match_batch` resolves a *batch* together -- the
batch supplies the query-side context (Entity Frequencies, name
attributes, top in-neighbors) -- so serving every KB1 entity in one
batch reproduces :meth:`repro.core.pipeline.MinoanER.resolve` pair for
pair.  :meth:`MatchEngine.match` resolves a *single* description as a
batch of one: candidates come only from the query's shared tokens and
names (never a scan of the indexed KB), and ``match(e)`` equals
``match_batch([e])[0]`` (tested).

Batch-of-one semantics, spelled out: the query side contributes
``EF1(t) = 1`` to every block weight, and neighbor evidence (``gamma``)
is inert because a lone description has no resolvable relations --
related queries must be batched together for rule R3's neighbor ranking
to contribute.  Single-query decisions are therefore cacheable by
content fingerprint (:mod:`repro.serving.cache`); batch decisions are
not, and never enter the cache.

Resilience (see ``docs/resilience.md``): when
``config.serving_deadline_ms`` is set, each lookup carries a
:class:`~repro.resilience.policy.Deadline`; a query that exhausts its
budget mid-pipeline receives a *degraded* name-evidence-only answer
(rule R1 or unmatched, ``MatchDecision.degraded = True``, never cached)
instead of blocking the stream.  A kernel that raises fails its lookup
like any other error: nothing is cached, and the serve loop turns it
into one error record.  Lookups and kernel calls are injection sites
(``serve:match``, ``serve:batch``, ``kernel:numpy``) for the chaos
plans of :mod:`repro.resilience.faults`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.blocking.name_blocking import normalize_name
from repro.blocking.purging import purging_threshold_from_counts
from repro.core.config import MinoanERConfig
from repro.core.matcher import NonIterativeMatcher
from repro.core.rank_aggregation import top_aggregate_candidate
from repro.core.rules import RULE_PRIORITY, VALUE_THRESHOLD
from repro.graph.blocking_graph import CandidateList, DisjunctiveBlockingGraph
from repro.graph.pruning import ADAPTIVE_CUT
from repro.kb.entity import EntityDescription
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.statistics import KBStatistics
from repro.kernels import BatchEvidence, InternedBlocks, block_weight, numpy_backend
from repro.obs import NULL_RECORDER, Recorder, current_recorder
from repro.obs.provenance import RULE_EVIDENCE, ProvenanceRecord, ProvenanceSampler
from repro.resilience.admission import AdmissionController
from repro.resilience.faults import inject
from repro.resilience.policy import Deadline, DeadlineExpired
from repro.serving.cache import LRUCache, entity_fingerprint
from repro.serving.index import ResolutionIndex
from repro.serving.merge import merge_single_evidence

PROVENANCE_TOP_SCORES = 3
"""Strongest value candidates kept on a provenance record."""

SWEEP_MARGIN = 4
"""Smallest touched candidate ids a shard reports for the R3 side-2
sweep.  Rules R1-R3 claim at most two KB2 entities before the sweep, so
the sweep's strongest proposal is always among the three smallest
touched ids; four gives one id of slack."""

_Outcome = tuple[
    "int | None", "str | None", "float | None", int, "tuple[tuple[int, float], ...]"
]
"""An internal lookup outcome: (kb2 id, rule, score, retained
candidates, top (kb2 id, beta score) pairs for provenance).  This is
what the LRU cache stores."""


def _top_scores(value_list: Sequence[tuple[int, float]]) -> tuple[tuple[int, float], ...]:
    """The strongest retained value candidates, provenance-sized."""
    return tuple(
        (int(candidate), float(score))
        for candidate, score in value_list[:PROVENANCE_TOP_SCORES]
    )


def apply_single_rules(
    config: MinoanERConfig,
    alpha: int | None,
    value_list: CandidateList,
    touched: Sequence[int],
) -> tuple[int, str, float] | None:
    """Rules R1-R4 in their query-local (batch-of-one) form.

    ``alpha`` is the query's name-evidence match (or None),
    ``value_list`` its pruned value candidates in ``(-score, id)``
    order, and ``touched`` the *ascending* ids of KB2 entities sharing a
    retained block with the query (the R3 side-2 sweep set).  Returns
    the winning ``(kb2 id, rule, score)`` or None.

    Called from :meth:`MatchEngine._lookup` alone, over the candidates
    :func:`repro.serving.merge.merge_single_evidence` produced, so the
    unsharded, sharded and live tiers all replay the exact same proposal
    and conflict logic.
    """
    # Rules R1-R3.  Proposals are (candidate, score, rule); the query
    # is implicitly side-1 entity 0.
    collected: list[tuple[int, float, str]] = []
    claimed_q = False
    claimed_2: set[int] = set()
    if config.use_name_rule and alpha is not None:
        collected.append((alpha, float("inf"), "R1"))
        claimed_q = True
        claimed_2.add(alpha)
    if config.use_value_rule and not claimed_q and value_list:
        top_candidate, top_beta = value_list[0]
        if top_beta >= VALUE_THRESHOLD:
            collected.append((top_candidate, top_beta, "R2"))
            claimed_q = True
            claimed_2.add(top_candidate)
    if config.use_rank_aggregation:
        if not claimed_q:
            best = top_aggregate_candidate(value_list, (), config.theta)
            if best is not None:
                candidate, score = best
                collected.append((candidate, score, "R3"))
                claimed_2.add(candidate)
        # Side-2 sweep: every touched candidate's own value list is
        # the single pair back to the query (rank score 1.0), so its
        # best aggregate is the query at theta * 1.0.
        side2_score = config.theta
        for candidate in touched:
            if candidate not in claimed_2:
                collected.append((candidate, side2_score, "R3"))
                claimed_2.add(candidate)

    # R4 reciprocity, per candidate: the candidate always retains
    # the query (the query is its entire candidate column), so only
    # the query -> candidate direction can fail -- the candidate
    # must sit in the query's pruned out-set.
    if config.use_reciprocity:
        out_q = {candidate for candidate, _ in value_list}
        if alpha is not None:
            out_q.add(alpha)
        collected = [item for item in collected if item[0] in out_q]

    if not collected:
        return None
    # Unique mapping over pairs sharing one query entity keeps
    # exactly the strongest proposal (rule priority, score, id).
    candidate, score, rule = min(
        collected, key=lambda item: (RULE_PRIORITY[item[2]], -item[1], item[0])
    )
    return int(candidate), rule, float(score)


@dataclass(frozen=True)
class MatchDecision:
    """The engine's answer for one query description.

    ``candidates`` counts the query's retained value candidates (its
    pruned ``beta`` out-degree), the same quantity on the single and
    batch paths.  ``cached`` and ``latency_ms`` describe *this* lookup
    and are excluded from equality, so a decision served from cache
    compares equal to the one that populated it.

    ``degraded`` marks a graceful-degradation answer: the query's
    deadline expired mid-pipeline and the engine fell back to name
    evidence alone (rule R1 or unmatched).  Degraded answers are
    *content*, not lookup metadata -- they participate in equality and
    never enter the cache.

    ``trace_id`` names this lookup within the engine's trace
    (``<engine trace id>-q<seq>``) and ``provenance`` carries the
    sampled audit record when the query was selected by
    ``config.provenance_sample_rate``.  Both describe the lookup, not
    the answer, so like ``cached``/``latency_ms`` they are excluded
    from equality.
    """

    query_uri: str
    kb2_id: int | None
    kb2_uri: str | None
    rule: str | None
    score: float | None
    candidates: int
    degraded: bool = False
    cached: bool = field(default=False, compare=False)
    latency_ms: float = field(default=0.0, compare=False)
    trace_id: str = field(default="", compare=False)
    provenance: ProvenanceRecord | None = field(default=None, compare=False)

    @property
    def matched(self) -> bool:
        """True iff the engine matched the query to an indexed entity."""
        return self.kb2_id is not None


class MatchEngine:
    """Online matcher over a frozen index; safe to share across threads.

    Parameters
    ----------
    index:
        The frozen target-KB structures.
    config:
        Overrides the config baked into the index.  Matching-rule and
        serving knobs take effect immediately; the KB2-side statistics
        knobs (``name_attributes_k``, ``relations_n``) are frozen into
        the index and only affect the query side.
    cache:
        An externally owned :class:`LRUCache` (e.g. shared between
        engines over the same index); by default the engine creates one
        sized ``config.serving_cache_size``.
    recorder:
        Observability sink for the engine's counters and latency/
        candidate histograms (``serving.*`` metrics); :meth:`stats` is
        a derived view over it.  ``None`` picks the ambient
        :func:`repro.obs.current_recorder` when a trace is active at
        construction time (so ``--trace`` runs fold serving metrics
        into the shared trace) and otherwise a private
        :class:`~repro.obs.Recorder`, keeping :meth:`stats` per-engine.
    """

    def __init__(
        self,
        index: ResolutionIndex,
        config: MinoanERConfig | None = None,
        cache: LRUCache | None = None,
        recorder: Recorder | None = None,
    ):
        self.index = index
        self.config = config or index.config
        #: Monotonic index generation: bumped by every live mutation and
        #: zero-drop swap (see :mod:`repro.serving.live`).  Cache keys
        #: carry it, so no answer computed against an older index state
        #: can ever be served after the state changes.
        self.generation = 0
        self._cut = ADAPTIVE_CUT if self.config.dynamic_pruning else None
        self.cache = cache if cache is not None else LRUCache(self.config.serving_cache_size)
        self._sampler = ProvenanceSampler(self.config.provenance_sample_rate)
        if recorder is not None:
            self.recorder = recorder
        else:
            ambient = current_recorder()
            self.recorder = ambient if ambient is not NULL_RECORDER else Recorder()
        # Admission control (docs/resilience.md): a bounded pending-work
        # gauge plus per-source token-bucket quotas.  Both knobs default
        # off, so the engine only pays the context-manager when the
        # operator asked for overload protection.
        if self.config.serving_max_pending or self.config.serving_quota_qps:
            self.admission: AdmissionController | None = AdmissionController(
                max_pending=self.config.serving_max_pending or None,
                quota_qps=self.config.serving_quota_qps,
                recorder=self.recorder,
            )
        else:
            self.admission = None

    @contextmanager
    def _admitted(self, source: str | None, cost: int) -> Iterator[None]:
        """Hold admission for ``cost`` queries; no-op when control is off.

        Raises :class:`~repro.resilience.admission.LoadShedError` before
        any resolution work happens -- the caller (``repro serve``)
        turns that into an explicit JSONL shed record.
        """
        if self.admission is None:
            yield
            return
        with self.admission.admit(source=source, cost=cost):
            yield

    # ------------------------------------------------------------------
    # Single-query path
    # ------------------------------------------------------------------
    def match(
        self, entity: EntityDescription, *, source: str | None = None
    ) -> MatchDecision:
        """Resolve one description against the index (batch-of-one).

        Consults the LRU cache first (content-fingerprint key); on a
        miss, runs the query-local pipeline and caches the outcome.
        With ``config.serving_deadline_ms`` set, a query that exhausts
        its budget mid-pipeline gets a degraded name-evidence-only
        answer (counted ``deadline.expired``; never cached).  ``source``
        labels the request for per-source admission quotas; with
        admission control configured, an over-limit query raises
        :class:`~repro.resilience.admission.LoadShedError` before any
        resolution work.
        """
        with self._admitted(source, 1):
            return self._match_one(entity)

    def _match_one(self, entity: EntityDescription) -> MatchDecision:
        """The single-query path, past admission."""
        started = time.perf_counter()
        key = (self.generation, entity_fingerprint(entity))
        outcome = self.cache.get(key)
        hit = outcome is not None
        self.recorder.count("serving.cache.hits" if hit else "serving.cache.misses")
        degraded = False
        if not hit:
            deadline = self._query_deadline()
            try:
                inject("serve:match")
                outcome, degraded = self._lookup(entity, deadline)
            except DeadlineExpired:
                self.recorder.count("deadline.expired")
                outcome, degraded = self._name_only_outcome(entity), True
            if degraded:
                self.recorder.count("serving.degraded")
            else:
                self.cache.put(key, outcome)
        latency_ms = (time.perf_counter() - started) * 1e3
        decision = self._decision(
            entity, outcome, latency_ms, degraded=degraded, cached=hit
        )
        self._record(1, latency_ms, [decision.candidates], int(decision.matched))
        return decision

    def _decision(
        self,
        entity: EntityDescription,
        outcome: _Outcome,
        latency_ms: float,
        degraded: bool = False,
        cached: bool = False,
        batched: bool = False,
    ) -> MatchDecision:
        """Shape one outcome as the decision every path returns: trace
        id, plus the audit record when the deterministic sampler selects
        the lookup (``serving.provenance_sampled``)."""
        kb2_id, rule, score, candidates, top = outcome
        seq, sampled = self._sampler.next()
        trace_id = f"{self.recorder.trace_id or 'serve'}-q{seq}"
        provenance = None
        if sampled:
            self.recorder.count("serving.provenance_sampled")
            provenance = ProvenanceRecord(
                trace_id=trace_id,
                query_uri=entity.uri,
                rule=rule,
                evidence=RULE_EVIDENCE.get(rule) if rule is not None else None,
                candidates=candidates,
                top_scores=top,
                degraded=degraded,
                cached=cached,
                batched=batched,
                generation=self.generation,
            )
        return MatchDecision(
            query_uri=entity.uri,
            kb2_id=kb2_id,
            kb2_uri=self.index.uris2[kb2_id] if kb2_id is not None else None,
            rule=rule,
            score=score,
            candidates=candidates,
            degraded=degraded,
            cached=cached,
            latency_ms=latency_ms,
            trace_id=trace_id,
            provenance=provenance,
        )

    def _lookup(
        self, entity: EntityDescription, deadline: Deadline | None
    ) -> tuple[_Outcome, bool]:
        """Resolve one cache-missed query: ``(outcome, degraded)``.

        Query-local Algorithm 1 + rules R1-R4 for a batch of one -- the
        decision ``match_batch([entity])`` would produce, in O(candidate
        set) instead of O(|KB2|) -- written once for every tier: only
        :meth:`_single_values` differs between them.  Raises
        :class:`DeadlineExpired` at the inter-step checkpoints; degraded
        outcomes (partial shard evidence) are never cached.
        """
        if self.index.n2 == 0:
            return (None, None, None, 0, ()), False
        qkb, qstats = self._query_stats([entity])
        if deadline is not None:
            deadline.check("name evidence")

        # Name evidence is computed even with R1 off: the alpha edge
        # still participates in R4 reciprocity, as in the batch graph.
        alpha = self._alpha_match(qstats)
        if deadline is not None:
            deadline.check("value evidence")

        # Value evidence over the query's shared-token blocks only.
        # gamma is inert for a lone query (no resolvable relations), so
        # the neighbor candidate lists of both sides are empty.
        tokens = self.value_tokens(entity, qkb=qkb)
        value_list, sweep, degraded = self._single_values(alpha, tokens, deadline)
        if deadline is not None:
            deadline.check("matching rules")

        top = _top_scores(value_list)
        matched = apply_single_rules(self.config, alpha, value_list, sweep)
        if matched is None:
            return (None, None, None, len(value_list), top), degraded
        candidate, rule, score = matched
        return (candidate, rule, score, len(value_list), top), degraded

    def _single_values(
        self, alpha: int | None, tokens: list[str], deadline: Deadline | None
    ) -> tuple[CandidateList, Sequence[int], bool]:
        """Evidence seam, single query: ``(pruned value list, ascending
        side-2 sweep ids, degraded)``.  In-process provider: this index
        is the merge's one source; the shard routers scatter instead."""
        evidence = self.match_evidence(
            None, probe=alpha, deadline=deadline, tokens=tokens
        )
        return (*merge_single_evidence(self.config, self._cut, alpha, [evidence]), False)

    def _query_deadline(self) -> Deadline | None:
        """A fresh per-lookup deadline, or None when none is configured."""
        budget_ms = self.config.serving_deadline_ms
        return Deadline.after_ms(budget_ms) if budget_ms is not None else None

    def _alpha_match(self, qstats: KBStatistics) -> int | None:
        """Name evidence for a lone query: :meth:`_batch_name_evidence`
        of a batch of one (the first singleton shared name in sorted
        order)."""
        return self._batch_name_evidence(qstats)[0].get(0)

    def _name_only_outcome(self, entity: EntityDescription) -> _Outcome:
        """The degraded answer: rule R1 over name evidence, or nothing.

        Deliberately the cheapest sound answer the index supports -- one
        name lookup, no token scan, no kernels -- so it fits in whatever
        sliver of budget remains after a deadline expires.
        """
        if self.index.n2 == 0 or not self.config.use_name_rule:
            return None, None, None, 0, ()
        alpha = self._alpha_match(self._query_stats([entity])[1])
        if alpha is None:
            return None, None, None, 0, ()
        return int(alpha), "R1", float("inf"), 0, ()

    # ------------------------------------------------------------------
    # Batch path
    # ------------------------------------------------------------------
    def match_batch(
        self, entities: Iterable[EntityDescription], *, source: str | None = None
    ) -> list[MatchDecision]:
        """Resolve a batch of descriptions together, with shared context.

        The batch is treated as the query-side KB of Algorithm 1:
        relations between batch entities resolve, Entity Frequencies
        come from the batch, and neighbor evidence propagates inside
        it.  Decisions are returned in input order; entities the rules
        left unmatched get an unmatched decision.  Results bypass the
        cache (they are only valid within this batch context).

        With ``config.serving_deadline_ms`` set, the budget covers the
        whole batch; on expiry every batch entity gets a degraded
        name-evidence-only decision (batch context is lost, so the
        degraded answers are query-local).  With admission control
        configured, the whole batch is admitted at once (cost = batch
        size, charged to ``source``) or shed at once with
        :class:`~repro.resilience.admission.LoadShedError`.
        """
        batch = list(entities)
        if not batch:
            return []
        with self._admitted(source, len(batch)):
            return self._match_many(batch)

    def _match_many(self, batch: list[EntityDescription]) -> list[MatchDecision]:
        """The batch path, past admission.  Written once for every
        tier -- only :meth:`_batch_values` differs between them."""
        started = time.perf_counter()
        deadline = self._query_deadline()
        try:
            inject("serve:batch")
            qkb, qstats = self._query_stats(batch)
            if deadline is not None:
                deadline.check("batch graph")
            value_1, value_2, degraded = self._batch_values(batch, qkb, deadline)
            graph = self._assemble_graph(qkb, qstats, value_1, value_2)
            if deadline is not None:
                deadline.check("batch matching")
        except DeadlineExpired:
            # Batch context is lost: name-evidence-only, query-local answers.
            self.recorder.count("deadline.expired")
            outcomes = [self._name_only_outcome(entity) for entity in batch]
            return self._batch_decisions(batch, outcomes, started, degraded=True)
        return self._finish_batch(batch, value_1, graph, started, degraded)

    def _query_stats(
        self, entities: list[EntityDescription]
    ) -> tuple[KnowledgeBase, KBStatistics]:
        """The queries as the query-side KB of Algorithm 1, profiled."""
        qkb = KnowledgeBase(entities, name="query", tokenizer=self.index.tokenizer)
        qstats = KBStatistics(
            qkb,
            top_k_name_attributes=self.config.name_attributes_k,
            top_n_relations=self.config.relations_n,
        )
        return qkb, qstats

    def _finish_batch(
        self,
        batch: list[EntityDescription],
        value_1: Sequence[CandidateList],
        graph: DisjunctiveBlockingGraph,
        started: float,
        degraded: bool,
    ) -> list[MatchDecision]:
        """Run the matcher over the assembled graph and shape decisions.

        Each query's retained-candidate count and provenance scores are
        read off ``value_1``'s arrays, never as a tuple per row.
        ``degraded`` marks every decision as partial-evidence (the shard
        router sets it when a shard's contribution is missing).
        """
        matching = NonIterativeMatcher(self.config).match(graph)
        # Unique mapping leaves each query entity at most one pair.
        matched = {
            eid1: (eid2, rule, matching.scores[eid1, eid2])
            for (eid1, eid2), rule in matching.rule_of.items()
        }
        lengths, heads = numpy_backend.list_heads(value_1, PROVENANCE_TOP_SCORES)
        outcomes: list[_Outcome] = []
        for position, (length, top) in enumerate(zip(lengths, heads)):
            kb2_id, rule, score = matched.get(position, (None, None, None))
            outcomes.append((kb2_id, rule, score, length, top))
        return self._batch_decisions(batch, outcomes, started, degraded)

    def _batch_decisions(
        self,
        batch: list[EntityDescription],
        outcomes: list[_Outcome],
        started: float,
        degraded: bool,
    ) -> list[MatchDecision]:
        """One decision per batch entity, the batch latency attributed
        evenly; every ``degraded`` batch is counted ``serving.degraded``."""
        if degraded:
            self.recorder.count("serving.degraded", len(batch))
        latency_ms = (time.perf_counter() - started) * 1e3
        decisions = [
            self._decision(
                entity, outcome, latency_ms / len(batch), degraded=degraded, batched=True
            )
            for entity, outcome in zip(batch, outcomes)
        ]
        self._record(
            len(batch),
            latency_ms,
            [decision.candidates for decision in decisions],
            sum(decision.matched for decision in decisions),
            batch=True,
        )
        return decisions

    def _run_kernel(self, method: str, *args):
        """One kernel call: a ``kernel:numpy`` injection site, then the
        kernel, looked up on :mod:`repro.kernels.numpy_backend` at call
        time.  Its exceptions propagate to the caller."""
        inject("kernel:numpy")
        return getattr(numpy_backend, method)(*args)

    def _batch_values(
        self,
        batch: list[EntityDescription],
        qkb: KnowledgeBase,
        deadline: Deadline | None,
    ) -> tuple[list[CandidateList], list[CandidateList], bool]:
        """Evidence seam, batch: ``(value_1, value_2, degraded)``, the
        pruned ``beta`` candidates of both sides of Algorithm 1.

        In-process provider: the interned ``value_topk`` kernel over the
        retained token blocks.  The shard routers scatter the batch
        instead.
        """
        value_1, value_2 = self._run_kernel(
            "value_topk", self._interned(qkb), self.config.candidates_k, self._cut
        )
        return value_1, value_2, False

    def _assemble_graph(
        self,
        qkb: KnowledgeBase,
        qstats: KBStatistics,
        value_1: list[CandidateList],
        value_2: list[CandidateList],
    ) -> DisjunctiveBlockingGraph:
        """Name + neighbor evidence over the seam's value candidates.

        Every side-2 structure spans ``index.id_space`` (on a live index:
        base ids plus every delta slot ever allocated, tombstones
        included); this is the one place that checks it.
        """
        index = self.index
        config = self.config
        assert len(index.in_neighbors) == index.id_space
        names_forward, names_reverse = self._batch_name_evidence(qstats)
        edges = self._run_kernel("retained_edges", value_1, value_2)
        neighbor_1, neighbor_2 = self._run_kernel(
            "gamma_topk",
            edges,
            qstats.in_neighbor_csr(),
            index.in_neighbors,
            config.candidates_k,
            self._cut,
        )
        return DisjunctiveBlockingGraph(
            n1=len(qkb),
            n2=index.id_space,
            name_matches_1=names_forward,
            name_matches_2=names_reverse,
            value_candidates_1=value_1,
            value_candidates_2=value_2,
            neighbor_candidates_1=neighbor_1,
            neighbor_candidates_2=neighbor_2,
        )

    def _retained_tokens(self, qkb: KnowledgeBase) -> list[str]:
        """The queries' shared tokens after block purging, sorted.

        The serving tier's one purging rule: a token block suggests
        ``|queries with t| * EF2(t)`` comparisons against a Cartesian of
        ``|queries| * n2`` (a lone query: ``EF2(t)`` against ``n2``);
        blocks over the budget are dropped -- same token order, counts
        and threshold as :func:`~repro.blocking.purging.purge_blocks`
        over the materialised blocks.  Entity Frequencies are *global*,
        so the rule also holds on a shard's under-counting postings.
        """
        index = self.index
        config = self.config
        postings = index.postings
        token_index = qkb.token_index
        # Probe the (few) query tokens against the index rather than
        # intersecting keys views: a mapped postings table answers
        # membership by binary search without decoding its tokens.
        shared = sorted(t for t in token_index if t in postings)
        if not config.purge_blocks or not shared:
            return shared
        ef = index.global_entity_frequency
        counts = [len(token_index[t]) * ef(t) for t in shared]
        threshold = purging_threshold_from_counts(counts, cartesian=len(qkb) * index.n2)
        return [t for t, count in zip(shared, counts) if count <= threshold]

    def _interned(self, qkb: KnowledgeBase) -> InternedBlocks:
        """The queries' retained token blocks against this index, interned.

        Block weights use global Entity Frequencies (equal to the local
        posting lengths off a shard), so a shard's ``beta`` sums equal
        the unsharded ones bit for bit.
        """
        index = self.index
        postings = index.postings
        token_index = qkb.token_index
        ef = index.global_entity_frequency
        tokens = self._retained_tokens(qkb)
        return InternedBlocks.from_block_items(
            ((token_index[token], postings[token]) for token in tokens),
            len(qkb),
            index.id_space,
            weights=[block_weight(len(token_index[t]) * ef(t)) for t in tokens],
        )

    def _batch_name_evidence(
        self, qstats: KBStatistics
    ) -> tuple[dict[int, int], dict[int, int]]:
        """``alpha = 1`` edges between the batch and the frozen name map,
        in the exact order of ``name_blocks`` + ``name_evidence``."""
        index1: dict[str, list[int]] = {}
        for eid in range(len(qstats.kb)):
            seen: set[str] = set()
            for raw in qstats.names(eid):
                name = normalize_name(raw)
                if name and name not in seen:
                    seen.add(name)
                    index1.setdefault(name, []).append(eid)
        forward: dict[int, int] = {}
        reverse: dict[int, int] = {}
        # Membership loop, not a set intersection: the index's name map
        # may be a mapped view whose keys-view would decode the whole
        # table; probing the few query names costs O(log n) each.
        names2 = self.index.names
        for name in sorted(n for n in index1 if n in names2):
            ids1, ids2 = index1[name], names2[name]
            if len(ids1) == 1 and len(ids2) == 1:
                eid1, eid2 = ids1[0], ids2[0]
                if eid1 not in forward and eid2 not in reverse:
                    forward[eid1] = eid2
                    reverse[eid2] = eid1
        return forward, reverse

    # ------------------------------------------------------------------
    # Per-source value evidence (this index as one source of the merge)
    # ------------------------------------------------------------------
    def value_tokens(
        self,
        entity: EntityDescription,
        qkb: KnowledgeBase | None = None,
    ) -> list[str]:
        """The purged, sorted shared-token list for one query entity.

        The query tokens that exist in the indexed KB, sorted, with
        stopword-like blocks purged by *global* Entity Frequency
        (:meth:`_retained_tokens` for a batch of one) -- exactly the
        list :meth:`match_evidence` derives for itself.  Shard files
        carry the full token table and the global EFs, so every worker
        would derive the same list independently; the router therefore
        computes it once on the full index and ships it with the
        request (see :mod:`repro.sharding`).
        """
        if qkb is None:
            qkb = KnowledgeBase([entity], name="query", tokenizer=self.index.tokenizer)
        return self._retained_tokens(qkb)

    def match_evidence(
        self,
        entity: EntityDescription | None,
        probe: int | None = None,
        deadline: Deadline | None = None,
        tokens: list[str] | None = None,
        exclude: Sequence[int] | None = None,
        weights: dict[str, float] | None = None,
    ) -> dict[str, object]:
        """This index's value evidence for one query, merge-ready.

        Accumulates the query's ``beta`` row over this index's postings
        -- with *global* Entity Frequencies, so per-shard weights and
        purging thresholds equal the unsharded ones -- and returns what
        the merge needs: the ``candidates_k`` strongest ``(candidate,
        score)`` pairs in ``(-score, id)`` order, the
        :data:`SWEEP_MARGIN` smallest touched ids, the touched count,
        and whether the router-supplied
        ``probe`` candidate (its alpha match) was touched.

        ``tokens`` short-circuits :meth:`value_tokens`: when the router
        ships the purged token list it computed once, the worker skips
        re-tokenising and re-purging the query (``entity`` may then be
        ``None``) -- the derived list is identical either way.

        ``exclude`` and ``weights`` carry the live-index overlay of a
        router whose base has pending edits (see
        :mod:`repro.serving.live`): ``exclude`` lists dead base ids to
        drop from every posting before accumulating, ``weights``
        overrides the hoisted singleton block weight of tokens whose
        *live* Entity Frequency differs from the frozen one.  Both
        default to no-ops, so the frozen-index path is untouched.
        """
        index = self.index
        if index.n2 == 0:
            return {"row": [], "mins": [], "count": 0, "probe": False}
        if deadline is not None:
            deadline.check("value evidence")
        shared = self.value_tokens(entity) if tokens is None else tokens
        postings = index.postings
        singleton_weights = index.singleton_weights
        dead = set(exclude) if exclude else None
        weighted = []
        for token in shared:
            ids = postings[token]
            if dead is not None:
                kept = [candidate for candidate in ids if candidate not in dead]
                if len(kept) != len(ids):
                    ids = kept
            weight = singleton_weights[token]
            if weights is not None and token in weights:
                weight = float(weights[token])
            weighted.append((weight, ids))
        return self._row_evidence(weighted, probe)

    def _row_evidence(
        self, weighted: list[tuple[float, Sequence[int]]], probe: int | None
    ) -> dict[str, object]:
        """One fused kernel call over ``(block weight, posting ids)``
        chunks (mapped id slices are consumed zero-copy), shaped as a
        merge-ready payload."""
        row, mins, count, touched = self._run_kernel(
            "row_evidence", weighted, self.config.candidates_k, SWEEP_MARGIN, probe
        )
        return {
            "row": [[int(candidate), float(score)] for candidate, score in row],
            "mins": [int(candidate) for candidate in mins],
            "count": int(count),
            "probe": bool(touched),
        }

    def batch_evidence(
        self,
        entities: Iterable[EntityDescription],
        deadline: Deadline | None = None,
        qkb: KnowledgeBase | None = None,
    ) -> BatchEvidence:
        """This index's value evidence for a whole batch, merge-ready.

        Per batch entity, the ``candidates_k`` strongest pairs of its
        ``beta`` row over this index (*unpruned* -- the adaptive cut
        only applies to the globally merged row).  The shard-final
        pruned candidate columns travel too: each KB2 entity's column
        lives wholly in its owner shard, so its top ``candidates_k`` +
        cut here *is* the global column.  One ``batch_evidence`` kernel call
        yields both as flat arrays (:class:`~repro.kernels.BatchEvidence`)
        straight from ``value_topk``'s output.  ``qkb`` short-circuits
        re-tokenising a batch the caller already profiled.
        """
        if qkb is None:
            qkb = KnowledgeBase(list(entities), name="query", tokenizer=self.index.tokenizer)
        if deadline is not None:
            deadline.check("batch evidence")
        return self._run_kernel(
            "batch_evidence", self._interned(qkb), self.config.candidates_k, self._cut
        )

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _record(
        self,
        queries: int,
        latency_ms: float,
        candidate_counts: Sequence[int],
        matched: int,
        batch: bool = False,
    ) -> None:
        """Record one lookup's metrics on :attr:`recorder`.

        One ``serving.latency_ms`` observation per call: the per-query
        latency (batch latency is attributed evenly to its queries).
        The recorder is thread-safe, so the engine needs no lock of its
        own.
        """
        recorder = self.recorder
        recorder.count("serving.queries", queries)
        if batch:
            recorder.count("serving.batches")
            recorder.count("serving.batch_queries", queries)
        if matched:
            recorder.count("serving.matched", matched)
        for count in candidate_counts:
            recorder.observe("serving.candidates", count)
        recorder.count("serving.latency_total_ms", latency_ms)
        recorder.observe("serving.latency_ms", latency_ms / (queries if batch else 1))

    def stats(self) -> dict[str, object]:
        """Snapshot of the engine's ``serving.*`` metrics plus the cache's.

        A derived view over :attr:`recorder`: counters and histogram
        snapshots are folded back into the flat dict shape this method
        has always returned.  Latency percentiles cover the histogram's
        bounded window of recent per-query latencies.
        """
        recorder = self.recorder
        queries = int(recorder.counter_value("serving.queries"))
        latency = recorder.histogram("serving.latency_ms")
        candidates = recorder.histogram("serving.candidates")
        latency_total = recorder.counter_value("serving.latency_total_ms")
        snapshot: dict[str, object] = {
            "queries": queries,
            "batches": int(recorder.counter_value("serving.batches")),
            "batch_queries": int(recorder.counter_value("serving.batch_queries")),
            "matched": int(recorder.counter_value("serving.matched")),
            "candidates_total": int(candidates.total),
            "candidates_max": int(candidates.maximum),
            "candidates_mean": candidates.total / queries if queries else 0.0,
            "latency_total_ms": latency_total,
            "latency_mean_ms": latency_total / queries if queries else 0.0,
            "latency_p50_ms": latency.p50,
            "latency_p95_ms": latency.p95,
            "degraded": int(recorder.counter_value("serving.degraded")),
            "deadline_expired": int(recorder.counter_value("deadline.expired")),
            "request_errors": int(recorder.counter_value("serving.request_errors")),
            "query_errors": int(recorder.counter_value("serving.query_errors")),
        }
        if self.admission is not None:
            snapshot["admission"] = self.admission.stats()
        snapshot["cache"] = self.cache.stats()
        return snapshot

    def __repr__(self) -> str:
        return (
            f"MatchEngine(index={self.index.kb_name!r}, n2={self.index.n2}, "
            f"queries={int(self.recorder.counter_value('serving.queries'))})"
        )
