"""Merge per-source value evidence into the engine's exact candidates.

A *source* is whatever accumulated a slice of one query's ``beta`` row:
the engine's own index, frozen or live (one source), or a shard worker
(N sources).  Every float a source ships was accumulated wholly inside
it (posting lists partition disjointly; weights and purging thresholds
use global Entity Frequencies), so merging is pure *re-ranking* under
the engine's total order ``(-score, id)`` -- implemented by the same
:func:`repro.kernels.numpy_backend.select_row` the kernels use, which
is insensitive to input permutation.  The engine then runs rules R1-R4
over the merged candidates, whichever sources they came from: the
unsharded engine is the one-source case of the merge the sharded tier
runs.

Why the merged candidates are bit-identical to one source holding
everything (see ``docs/sharding.md`` for the long form):

* **Rows** -- each source ships its top ``candidates_k`` pairs; the
  global top ``candidates_k`` is a subset of the union, so
  ``select_row`` over the concatenation reproduces the global ranking.
* **Sweep ids** (single queries) -- rules R1-R3 claim at
  most two entities before the R3 side-2 sweep, so the sweep's
  strongest proposal is among the three smallest *touched* ids; each
  source's :data:`~repro.serving.engine.SWEEP_MARGIN` smallest cover
  them.  With reciprocity on, surviving sweep proposals are further
  confined to the pruned value list plus the (probed) alpha.  Replay
  over this subset therefore keeps the true winner while every extra
  id it proposes is one the full sweep proposed too.
* **Columns** (batches) -- a KB2 entity's candidate column
  lives wholly in its owner source, so that source's pruned column *is*
  the global one and columns merge by disjoint union.

A batch's evidence travels as flat arrays
(:class:`~repro.kernels.BatchEvidence`) and merges in one call of the
vectorised ``merge_batch_evidence`` kernel.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.core.config import MinoanERConfig
from repro.graph.blocking_graph import CandidateList
from repro.graph.pruning import adaptive_cut
from repro.kernels import BatchEvidence, RankedLists

__all__ = ["merge_batch_evidence", "merge_single_evidence"]


def _merge_ranked(
    rows: Sequence[Sequence[Sequence[Any]]], k: int, cut
) -> CandidateList:
    """Top-K of the union of per-source ranked rows, ``(-score, id)`` order.

    A candidate id lives in exactly one source (posting lists partition
    by entity), so the decorated ``(score, -id)`` tuples are pairwise
    distinct and one descending C-level sort realises the exact total
    order :func:`select_row` would produce over the concatenation --
    and since each source's row arrives already ranked, Timsort merges
    the descending runs by galloping instead of re-sorting.  No
    ``int``/``float`` casts: rows come off the wire as native JSON
    numbers (the engine casts when it builds them).  This is the
    per-query merge hot path; its cost is what scales with shard count
    on the scatter-gather critical path.
    """
    decorated = [(score, -candidate) for row in rows for candidate, score in row]
    decorated.sort(reverse=True)
    ranked: CandidateList = tuple((-negated, score) for score, negated in decorated[:k])
    if cut is not None:
        ranked = adaptive_cut(ranked, cut[0], cut[1])
    return ranked


def merge_single_evidence(
    config: MinoanERConfig,
    cut,
    alpha: int | None,
    evidences: Sequence[dict[str, Any]],
) -> tuple[CandidateList, Sequence[int]]:
    """One query's value candidates from per-source ``match_evidence``.

    ``alpha`` is the engine's name match and ``cut`` its
    adaptive-pruning tuple.  ``evidences`` holds the answering sources'
    payloads (a failed shard is simply absent -- the merge then yields
    the best degraded candidates the survivors support).  Returns the
    query's pruned value list in ``(-score, id)`` order and the
    ascending side-2 sweep ids -- the two inputs of
    :func:`repro.serving.engine.apply_single_rules`.
    """
    value_list = _merge_ranked(
        [evidence["row"] for evidence in evidences], config.candidates_k, cut
    )
    sweep_set = {
        int(candidate)
        for evidence in evidences
        for candidate in evidence["mins"]
    }
    sweep_set.update(candidate for candidate, _ in value_list)
    if alpha is not None and any(
        evidence["probe"] for evidence in evidences
    ):
        sweep_set.add(int(alpha))
    return value_list, sorted(sweep_set)


def merge_batch_evidence(
    run_kernel: Callable[..., Any],
    config: MinoanERConfig,
    cut,
    n_entities: int,
    id_space: int,
    evidences: Sequence[BatchEvidence],
) -> tuple[Sequence[CandidateList], RankedLists]:
    """A batch's ``(value_1, value_2)`` from per-source ``batch_evidence``.

    This reproduces what the ``value_topk`` kernel returns for the whole
    batch against one index holding every source's postings.
    ``value_2`` spans the index's whole ``id_space`` as a
    :class:`RankedLists` built from the touched columns alone; the
    engine feeds both to ``MatchEngine._assemble_graph``.
    ``run_kernel`` is the engine's kernel call
    (``MatchEngine._run_kernel``).
    """
    return run_kernel(
        "merge_batch_evidence",
        evidences,
        n_entities,
        id_space,
        config.candidates_k,
        cut,
    )
