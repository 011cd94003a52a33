"""Stage-parallel MinoanER: the dataflow of the paper's Figure 4.

``ParallelMinoanER`` is the serial :class:`repro.core.pipeline.MinoanER`
with its two expensive phases run as partitioned stages on a
:class:`~repro.parallel.context.ParallelContext`, with barriers exactly
where Figure 4 places them: ``graph:beta`` and -- after the barrier that
assembles the retained edges -- ``graph:gamma`` over node ranges of both
KBs (:mod:`repro.kernels.partition`, which is why the graph is
**bit-identical** to the serial one at any partition count), then the
per-node work of rules R2/R3 over node partitions (``match:*``), whose
proposals the driver concatenates and resolves with the serial R4 and
unique mapping.  All stage kernels are module-level functions so the
``process`` backend can pickle them.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import MinoanERConfig
from repro.core.matcher import MatchingResult, NonIterativeMatcher
from repro.core.pipeline import MinoanER, ResolutionResult
from repro.graph.blocking_graph import CandidateList, DisjunctiveBlockingGraph
from repro.graph.construction import name_evidence
from repro.graph.pruning import ADAPTIVE_CUT
from repro.kb.knowledge_base import KnowledgeBase
from repro.kernels import get_backend
from repro.kernels.partition import (
    beta_range_kernel,
    gamma_range_kernel,
    restrict_blocks,
)
from repro.obs import Recorder
from repro.parallel.context import ParallelContext, split_into_partitions
from repro.resilience.policy import RetryPolicy


class ParallelMinoanER(MinoanER):
    """MinoanER executed as partitioned stages with explicit barriers.

    The phase skeleton is :meth:`MinoanER.resolve`; this class supplies
    how the graph and matching phases run and owns the context.

    Parameters
    ----------
    config:
        Same configuration object as the serial pipeline.  When no
        ``context`` is supplied, ``config.failure_mode`` and the retry
        knobs shape the context this pipeline creates (and owns).
    context:
        Execution context; its ``stage_log`` afterwards holds the
        per-stage timings used by the Figure 6 experiment.  A caller-
        supplied context is *not* closed by this pipeline; the default
        self-created one is, on :meth:`close` / ``with`` exit, so
        worker pools never leak across resolves.

    Examples
    --------
    >>> # with ParallelContext(num_workers=4, backend="process") as ctx:
    >>> #     result = ParallelMinoanER(config, ctx).resolve(kb1, kb2)
    """

    def __init__(
        self,
        config: MinoanERConfig | None = None,
        context: ParallelContext | None = None,
        recorder: Recorder | None = None,
    ):
        super().__init__(config, recorder)
        self._owns_context = context is None
        if context is None:
            context = ParallelContext(
                failure_mode=self.config.failure_mode,
                retry_policy=super().phase_retry_policy(),
            )
        self.context = context

    def close(self) -> None:
        """Shut down the context's worker pool iff this pipeline created it."""
        if self._owns_context:
            self.context.close()

    def __enter__(self) -> "ParallelMinoanER":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def phase_retry_policy(self) -> RetryPolicy | None:
        """The *context's* policy: driver phases retry like its partitions.

        Driver-side phases cannot be partially skipped (there is no
        partition to drop), so under ``retry`` *and* ``degrade`` they
        are retried per the context's policy and then propagate.
        """
        context = self.context
        return context.retry_policy if context.failure_mode != "fail_fast" else None

    def span_attributes(self) -> dict[str, object]:
        return {"parallel_backend": self.context.backend}

    def resolve(self, kb1: KnowledgeBase, kb2: KnowledgeBase) -> ResolutionResult:
        """Run the stage-parallel pipeline; same output as the serial one.

        The context's stages appear as ``stage:*`` child spans of the
        phase that runs them, and the partitions skipped under
        ``failure_mode = "degrade"`` are folded into
        ``ResolutionResult.degraded`` (stage name -> partition indices).
        """
        context = self.context
        # An explicitly supplied pipeline recorder also collects the
        # context's stage spans for the duration of this run.
        own_recorder = context._recorder
        if own_recorder is None:
            context._recorder = self._recorder
        stage_log_start = len(context.stage_log)
        try:
            result = super().resolve(kb1, kb2)
        finally:
            context._recorder = own_recorder
        result.degraded = {
            record.name: record.skipped
            for record in context.stage_log[stage_log_start:]
            if record.skipped
        }
        return result

    def graph_phase(self, stats1, stats2, names, tokens, guarded) -> DisjunctiveBlockingGraph:
        """Algorithm 1 as two node-range stages (Figure 4: ``beta`` during
        blocking, ``gamma`` after the top-neighbor barrier).

        A partition skipped under ``degrade`` leaves its node range
        without candidates of that evidence kind.
        """
        config = self.config
        sizes = (len(stats1.kb), len(stats2.kb))
        # Each side is cut into the same number of ranges whatever its
        # size: both sides score the same cross pairs, so equal range
        # *counts* -- not counts proportional to KB size -- balance work.
        ranges = [
            (side, chunk[0], chunk[-1] + 1)
            for side, size in enumerate(sizes, 1)
            for chunk in split_into_partitions(range(size), self.context.default_partitions())
        ]
        pruning = (config.candidates_k, ADAPTIVE_CUT if config.dynamic_pruning else None)

        blocks = [(block.side1, block.side2) for block in tokens]
        value_1, value_2 = self._range_stage(
            "graph:beta", sizes, restrict_blocks(blocks, ranges), beta_range_kernel,
            *sizes, *pruning,
        )
        neighbor_1, neighbor_2 = self._range_stage(
            "graph:gamma", sizes, ranges, gamma_range_kernel,
            get_backend().retained_edges(value_1, value_2),
            stats1.in_neighbor_csr(), stats2.in_neighbor_csr(), *pruning,
        )
        return DisjunctiveBlockingGraph(
            *sizes, *name_evidence(names), value_1, value_2, neighbor_1, neighbor_2
        )

    def _range_stage(self, name, sizes, tasks, kernel, *args):
        """One stage with a partition per node-range task; the driver only
        places the returned ``(side, lo, rows)`` slices, per side."""
        sides: tuple[list[CandidateList], ...] = tuple([()] * size for size in sizes)
        results = self.context.run_stage(name, tasks, kernel, *args, partitions=len(tasks))
        for partition in results:
            for side, lo, rows in partition:
                sides[side - 1][lo : lo + len(rows)] = rows
        return sides

    def matching_phase(self, graph: DisjunctiveBlockingGraph, guarded) -> MatchingResult:
        """Rules R1-R4 with R2 and R3 as per-node stages (barriers
        between rules); identical output to the serial matcher.

        R1 is a driver scan of the (tiny) alpha edge set.  ``match:R2``
        and ``match:R3_side{1,2}`` partition the nodes each rule visits;
        a partition runs the serial kernel over its node range, and the
        driver concatenates the proposals in partition order -- the
        ascending node order of the serial pass.  R4 and unique mapping
        run on the driver.
        """
        return NonIterativeMatcher(self.config).apply(graph, self._rule_stage)

    def _rule_stage(self, name, nodes, kernel, *args):
        """One rule stage: ``kernel`` per partition of ``nodes``, the
        partitions' ``(nodes, partners, scores)`` laid back to back."""
        parts = self.context.run_stage(name, nodes, kernel, *args)
        if not parts:
            return kernel(nodes[:0], *args)
        return tuple(np.concatenate(column) for column in zip(*parts))
