"""End-to-end MinoanER pipeline: statistics -> blocking -> graph -> matching.

:class:`MinoanER` is the public facade.  It wires the substrates in the
order of the paper's architecture (Figure 4) -- serially.  Its
:meth:`~MinoanER.resolve` is the one phase skeleton of the repo (spans,
guarded driver phases, timings, result assembly): the stage-parallel
variant mirroring the Spark implementation
(:class:`repro.parallel.pipeline.ParallelMinoanER`) subclasses it and
replaces only how the graph and matching phases *run*, producing a
bit-identical graph and identical matches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.blocking.base import BlockCollection
from repro.blocking.name_blocking import name_blocks
from repro.blocking.purging import purge_blocks
from repro.blocking.token_blocking import token_blocks
from repro.core.config import MinoanERConfig
from repro.core.matcher import MatchingResult, NonIterativeMatcher
from repro.evaluation.metrics import MatchingReport, evaluate_matches
from repro.graph.blocking_graph import DisjunctiveBlockingGraph
from repro.graph.construction import build_blocking_graph
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.statistics import KBStatistics
from repro.obs import Recorder, current_recorder, phase_span
from repro.resilience.faults import inject
from repro.resilience.policy import RETRY_BASE_DELAY_S, RetryPolicy


TIMING_PHASES = ("statistics", "blocking", "graph", "matching", "total")
"""The documented keys of :attr:`ResolutionResult.timings`, in pipeline order."""


@dataclass
class ResolutionResult:
    """Everything produced by one :meth:`MinoanER.resolve` run.

    ``matches`` are id pairs; :meth:`uri_matches` translates them to URI
    pairs for downstream consumers; ``timings`` holds per-phase wall
    times in seconds.  Since the observability layer landed, ``timings``
    is a *derived view*: the pipeline times each phase as a
    :class:`repro.obs.Span` and copies the span durations here for
    backward compatibility (export the full trace with the ``--trace``
    CLI flag or :func:`repro.obs.use_recorder`).  All
    :data:`TIMING_PHASES` keys (``statistics``, ``blocking``,
    ``graph``, ``matching``, ``total``) are always present: a phase
    that was skipped (or a result assembled by hand, e.g. in tests or
    by a pipeline variant that fuses phases) reports 0.0 rather than
    omitting the key, so downstream consumers can index ``timings``
    without guarding.

    ``degraded`` is the graceful-degradation ledger: stage name to the
    partition indices that were skipped under ``failure_mode =
    "degrade"`` (see ``docs/resilience.md``).  An empty dict -- the
    normal case -- means the result is complete; a non-empty dict means
    the match set is *partial* and names exactly what was dropped, so
    downstream consumers can decide whether a partial answer is
    acceptable instead of silently trusting it.
    """

    kb1: KnowledgeBase
    kb2: KnowledgeBase
    matching: MatchingResult
    graph: DisjunctiveBlockingGraph
    name_block_collection: BlockCollection
    token_block_collection: BlockCollection
    timings: dict[str, float] = field(default_factory=dict)
    degraded: dict[str, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for phase in TIMING_PHASES:
            self.timings.setdefault(phase, 0.0)

    @property
    def is_degraded(self) -> bool:
        """True iff any stage partition was skipped to produce this result."""
        return bool(self.degraded)

    @property
    def matches(self) -> set[tuple[int, int]]:
        """Matched ``(KB1 id, KB2 id)`` pairs."""
        return self.matching.matches

    def uri_matches(self) -> set[tuple[str, str]]:
        """Matched ``(KB1 URI, KB2 URI)`` pairs."""
        return {
            (self.kb1.uri_of(eid1), self.kb2.uri_of(eid2))
            for eid1, eid2 in self.matching.matches
        }

    def evaluate(
        self, ground_truth: set[tuple[int, int]], partial_gold: bool = True
    ) -> MatchingReport:
        """Precision/recall/F1 against ``(KB1 id, KB2 id)`` ground truth.

        ``partial_gold`` follows the benchmark protocol for incomplete
        gold standards (see :func:`repro.evaluation.metrics.evaluate_matches`).
        """
        return evaluate_matches(self.matching.matches, ground_truth, partial_gold)

    def evaluate_uris(
        self, ground_truth: set[tuple[str, str]], partial_gold: bool = True
    ) -> MatchingReport:
        """Precision/recall/F1 against URI-pair ground truth."""
        return evaluate_matches(self.uri_matches(), ground_truth, partial_gold)


class MinoanER:
    """Schema-agnostic, non-iterative entity resolution over two clean KBs.

    Parameters
    ----------
    config:
        Pipeline configuration; defaults to the paper's recommended
        global configuration ``(k, K, N, theta) = (2, 15, 3, 0.6)``.
    recorder:
        Observability sink for the per-phase spans.  ``None`` (the
        default) resolves the ambient :func:`repro.obs.current_recorder`
        at each run -- a no-op unless a trace is active;
        :data:`repro.obs.NULL_RECORDER` pins the no-op recorder even
        inside an active trace (phase timings stay correct).

    Examples
    --------
    >>> from repro.kb.entity import EntityDescription
    >>> from repro.kb.knowledge_base import KnowledgeBase
    >>> kb1 = KnowledgeBase([EntityDescription("a", [("label", "fat duck bray")])], "K1")
    >>> kb2 = KnowledgeBase([EntityDescription("b", [("name", "fat duck bray")])], "K2")
    >>> result = MinoanER().resolve(kb1, kb2)
    >>> result.uri_matches()
    {('a', 'b')}
    """

    def __init__(
        self,
        config: MinoanERConfig | None = None,
        recorder: Recorder | None = None,
    ):
        self.config = config or MinoanERConfig()
        self._recorder = recorder

    @property
    def recorder(self) -> Recorder:
        """The span/metric sink of the next run (never None)."""
        if self._recorder is not None:
            return self._recorder
        return current_recorder()

    def build_statistics(self, kb: KnowledgeBase) -> KBStatistics:
        """Per-KB statistics with this pipeline's ``k`` and ``N``."""
        return KBStatistics(
            kb,
            top_k_name_attributes=self.config.name_attributes_k,
            top_n_relations=self.config.relations_n,
        )

    def build_blocks(
        self,
        stats1: KBStatistics,
        stats2: KBStatistics,
    ) -> tuple[BlockCollection, BlockCollection]:
        """Name blocks and (purged) token blocks for the pair."""
        config = self.config
        names = name_blocks(stats1, stats2)
        tokens = token_blocks(stats1.kb, stats2.kb)
        if config.purge_blocks:
            tokens = purge_blocks(tokens, cartesian=len(stats1.kb) * len(stats2.kb))
        return names, tokens

    def phase_retry_policy(self) -> RetryPolicy | None:
        """The per-phase retry policy implied by ``config.failure_mode``.

        ``None`` for ``fail_fast``.  The serial pipeline has no
        partitions to skip, so ``degrade`` behaves like ``retry`` here:
        a phase that keeps failing propagates after the attempt budget
        (partition-level degradation is the parallel pipeline's job).
        """
        if self.config.failure_mode == "fail_fast":
            return None
        return RetryPolicy(
            max_attempts=self.config.retry_max_attempts,
            base_delay_s=RETRY_BASE_DELAY_S,
        )

    def span_attributes(self) -> dict[str, object]:
        """Extra attributes stamped on the root ``resolve`` span (none here)."""
        return {}

    def graph_phase(
        self,
        stats1: KBStatistics,
        stats2: KBStatistics,
        names: BlockCollection,
        tokens: BlockCollection,
        guarded,
    ) -> DisjunctiveBlockingGraph:
        """Algorithm 1 as one driver step at the ``stage:graph`` site.

        ``guarded(site, thunk)`` runs a driver step under the fault plan
        and :meth:`phase_retry_policy`.
        """
        return guarded(
            "stage:graph",
            lambda: build_blocking_graph(
                stats1,
                stats2,
                names,
                tokens,
                k=self.config.candidates_k,
                dynamic_pruning=self.config.dynamic_pruning,
            ),
        )

    def matching_phase(self, graph: DisjunctiveBlockingGraph, guarded) -> MatchingResult:
        """Algorithm 2 as one driver step at the ``stage:matching`` site."""
        return guarded(
            "stage:matching", lambda: NonIterativeMatcher(self.config).match(graph)
        )

    def resolve(self, kb1: KnowledgeBase, kb2: KnowledgeBase) -> ResolutionResult:
        """Run the full pipeline and return matches plus all intermediates.

        Each Algorithm 1/2 phase is timed as a span (``statistics``,
        ``blocking``, ``graph``, ``matching``, nested under ``resolve``)
        on :attr:`recorder`; ``ResolutionResult.timings`` is derived
        from those spans.  Every phase is an injection site
        (``stage:statistics``, ``stage:token_blocking``,
        ``stage:graph``, ``stage:matching``) and is retried per
        :meth:`phase_retry_policy` when ``config.failure_mode`` asks
        for it.
        """
        recorder = self.recorder
        policy = self.phase_retry_policy()

        def guarded(site, thunk):
            def body():
                inject(site)
                return thunk()

            if policy is None:
                return body()
            return policy.call(
                body, on_retry=lambda attempt, error: recorder.count("retry.attempts")
            )

        with phase_span(
            recorder, "resolve", n1=len(kb1), n2=len(kb2), **self.span_attributes()
        ) as root:
            with phase_span(recorder, "statistics") as span_statistics:
                stats1, stats2 = guarded(
                    "stage:statistics",
                    lambda: (self.build_statistics(kb1), self.build_statistics(kb2)),
                )

            with phase_span(recorder, "blocking") as span_blocking:
                names, tokens = guarded(
                    "stage:token_blocking", lambda: self.build_blocks(stats1, stats2)
                )

            with phase_span(recorder, "graph") as span_graph:
                graph = self.graph_phase(stats1, stats2, names, tokens, guarded)

            with phase_span(recorder, "matching") as span_matching:
                matching = self.matching_phase(graph, guarded)

        timings = {
            "statistics": span_statistics.seconds,
            "blocking": span_blocking.seconds,
            "graph": span_graph.seconds,
            "matching": span_matching.seconds,
            "total": root.seconds,
        }
        return ResolutionResult(
            kb1=kb1,
            kb2=kb2,
            matching=matching,
            graph=graph,
            name_block_collection=names,
            token_block_collection=tokens,
            timings=timings,
        )
