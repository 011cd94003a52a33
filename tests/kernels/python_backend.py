"""The python conformance oracle of :mod:`repro.kernels.numpy_backend`.

The same kernel surface written as plain loops over a dense scratch row
+ touched list, so the property tests can check the vectorised kernels
element for element and by float bits against an independent second
implementation (the dict reference in ``tests/graph/dict_reference.py``
covers the whole graph; this one covers every kernel entry point).

The accumulator pattern shared by the kernels: one dense ``float``
scratch row (length = the other KB's entity count) plus a *touched*
list of the slots written this round.  Accumulating into a list slot is
a plain index store -- no per-pair hashing -- and resetting only the
touched slots keeps each round O(nnz) instead of O(n).

Top-K selection runs over ``(score, -id)`` decorated tuples in a
bounded min-heap, so every comparison is a C-level tuple comparison
(no key-function calls); the decoration realises the same total order
as :func:`repro.graph.pruning.top_k_candidates`.

Floating-point equivalence with the dict reference
(``tests/graph/dict_reference.py``) is by construction:

* per KB1 entity, blocks are visited in ascending block order, so every
  ``(i, j)`` pair accumulates its block weights in exactly the order the
  reference's block-outer loop does;
* side-2 rows are *copies* of the accumulated sums (bucketed by
  candidate id), mirroring ``transpose_beta``'s copy semantics;
* ``gamma`` visits retained edges grouped per in-neighbor source but in
  retained-edge order within each group, matching the reference's
  edge-outer loop order per ``(source, target)`` pair.
"""

from __future__ import annotations

from array import array
from heapq import heappush, heappushpop, nsmallest
from itertools import accumulate
from typing import Iterable, Sequence

from repro.graph.blocking_graph import CandidateList
from repro.graph.pruning import adaptive_cut
from repro.kernels.interning import (
    BatchEvidence,
    CSRAdjacency,
    EdgeArrays,
    InternedBlocks,
    RankedLists,
)

AdaptiveCut = tuple[float, int] | None
"""``(gap_ratio, minimum)`` for dynamic pruning, or None for plain top-K."""


def _select_row(
    ids: list[int],
    sums: list[float],
    k: int,
    cut: AdaptiveCut,
) -> CandidateList:
    """Top-K of one sparse row, ranked by ``(-score, id)``.

    Decorated as ``(score, -id)`` so the bounded min-heap keeps the k
    largest under the exact tie-break order of ``top_k_candidates``.
    """
    if k <= 0 or not ids:
        return ()
    decorated = [(score, -candidate) for score, candidate in zip(sums, ids)]
    if len(decorated) > k:
        heap: list[tuple[float, int]] = []
        worst = None
        for item in decorated:
            if worst is None:
                heappush(heap, item)
                if len(heap) == k:
                    worst = heap[0]
            elif item > worst:
                heappushpop(heap, item)
                worst = heap[0]
        heap.sort(reverse=True)
        decorated = heap
    else:
        decorated.sort(reverse=True)
    ranked = tuple([(-negated, score) for score, negated in decorated])
    if cut is not None:
        ranked = adaptive_cut(ranked, cut[0], cut[1])
    return ranked


def select_row(
    ids: list[int],
    sums: list[float],
    k: int,
    cut: AdaptiveCut = None,
) -> CandidateList:
    """Public single-row top-K entry point.

    Ranks one sparse row under the exact total order of the batch
    kernels -- ``(-score, id)`` with the same bounded-heap selection --
    so a row scored at query time is pruned identically to the same row
    scored inside :func:`value_topk` / :func:`gamma_topk`.
    """
    return _select_row(ids, sums, k, cut)


def accumulate_row(
    weighted_postings: "Iterable[tuple[float, Iterable[int]]]",
) -> tuple[list[int], list[float]]:
    """Accumulate one entity's ``beta`` row from weighted posting lists.

    ``weighted_postings`` yields ``(block weight, candidate ids)`` per
    block, in ascending block order.  Sums are added in visit order, so
    feeding the blocks of one KB1 entity (sorted as the interner sorts
    them) reproduces that entity's :func:`beta_sparse` row bit for bit
    -- the single-query hot path of :mod:`repro.serving` runs the numpy
    form, which never materialises an
    :class:`~repro.kernels.interning.InternedBlocks`.
    """
    row: dict[int, float] = {}
    get = row.get
    for weight, candidates in weighted_postings:
        for candidate in candidates:
            row[candidate] = get(candidate, 0.0) + weight
    return list(row.keys()), list(row.values())


def row_evidence(
    weighted_postings: "Iterable[tuple[float, Iterable[int]]]",
    keep: int,
    margin: int,
    probe: int | None = None,
):
    """One query's merge-ready value evidence, fused.

    :func:`accumulate_row` + :func:`select_row` plus the two summaries
    the shard-merge protocol needs -- the ``margin`` smallest touched
    candidate ids and whether ``probe`` was touched -- in one kernel
    call, so a backend can keep the row in its native representation
    end to end instead of round-tripping through python lists between
    ops.  Returns ``(ranked row, mins, touched count, probe touched)``.
    """
    ids, sums = accumulate_row(weighted_postings)
    row = _select_row(ids, sums, keep, None)
    mins = [int(candidate) for candidate in nsmallest(margin, ids)]
    touched = probe is not None and any(int(candidate) == probe for candidate in ids)
    return row, mins, len(ids), touched


def _beta_sparse_rows(interned: InternedBlocks):
    """Yield ``(candidate ids, beta sums)`` per KB1 entity, in order."""
    n2 = interned.n2
    entity_offsets = interned.entity_block_offsets.tolist()
    entity_blocks = interned.entity_block_ids.tolist()
    side2_offsets = interned.side2_offsets.tolist()
    side2_ids = interned.side2_ids.tolist()
    weights = interned.weights.tolist()
    scratch = [0.0] * n2
    for entity in range(interned.n1):
        touched: list[int] = []
        append = touched.append
        for block in entity_blocks[entity_offsets[entity] : entity_offsets[entity + 1]]:
            weight = weights[block]
            for candidate in side2_ids[side2_offsets[block] : side2_offsets[block + 1]]:
                value = scratch[candidate]
                if value != 0.0:
                    scratch[candidate] = value + weight
                else:
                    scratch[candidate] = weight
                    append(candidate)
        sums = [scratch[candidate] for candidate in touched]
        yield touched, sums
        for candidate in touched:
            scratch[candidate] = 0.0


def beta_sparse(interned: InternedBlocks) -> list[tuple[list[int], list[float]]]:
    """Backend-native sparse ``beta``: per-entity ``(ids, sums)`` rows.

    This is the representation the fused ``value_topk`` consumes; the
    dict view of :func:`accumulate_beta` exists only as the
    oracle-comparable interface.
    """
    return list(_beta_sparse_rows(interned))


def accumulate_beta(interned: InternedBlocks) -> list[dict[int, float]]:
    """Per-KB1-entity ``beta`` rows as dicts (oracle-comparable view).

    Bit-identical to :func:`tests.graph.dict_reference.accumulate_beta`
    on the same blocks; used by the equivalence tests and benchmarks.
    """
    return [dict(zip(ids, sums)) for ids, sums in _beta_sparse_rows(interned)]


def value_topk(
    interned: InternedBlocks,
    k: int,
    cut: AdaptiveCut = None,
) -> tuple[list[CandidateList], list[CandidateList]]:
    """Fused beta accumulation + transpose + top-K for both sides.

    Equivalent to ``value_evidence`` without materialising the n2 column
    dicts: side-1 rows are pruned as soon as they are accumulated, and
    their nonzeros are bucketed per KB2 entity (a copy, exactly like
    ``transpose_beta``) for the side-2 pruning pass.
    """
    n2 = interned.n2
    column_ids: list[list[int]] = [[] for _ in range(n2)]
    column_sums: list[list[float]] = [[] for _ in range(n2)]
    side1: list[CandidateList] = []
    for entity, (ids, sums) in enumerate(_beta_sparse_rows(interned)):
        side1.append(_select_row(ids, sums, k, cut))
        for candidate, value in zip(ids, sums):
            column_ids[candidate].append(entity)
            column_sums[candidate].append(value)
    side2 = [
        _select_row(ids, sums, k, cut)
        for ids, sums in zip(column_ids, column_sums)
    ]
    return side1, side2


def batch_evidence(
    interned: InternedBlocks,
    k: int,
    cut: AdaptiveCut = None,
) -> BatchEvidence:
    """One source's merge-ready batch value evidence: :func:`value_topk`'s
    lists laid out as flat arrays.

    Rows keep their top ``k`` pairs *uncut* (the cut belongs to the
    merged row).  Every non-empty column ships its top ``k`` pairs cut
    by ``cut``: a KB2 entity's column lives wholly in one source, so it
    is already final.
    """
    rows, side2 = value_topk(interned, k)
    col_nodes, col_lengths, col_ids, col_scores = array("i"), array("i"), array("i"), array("d")
    for node, ranked in enumerate(side2):
        if ranked:
            if cut is not None:
                ranked = adaptive_cut(ranked, cut[0], cut[1])
            col_nodes.append(node)
            col_lengths.append(len(ranked))
            col_ids.extend([position for position, _ in ranked])
            col_scores.extend([score for _, score in ranked])
    return BatchEvidence(
        array("i", [len(ranked) for ranked in rows]),
        array("i", [candidate for ranked in rows for candidate, _ in ranked]),
        array("d", [score for ranked in rows for _, score in ranked]),
        col_nodes,
        col_lengths,
        col_ids,
        col_scores,
    )


def _spans(lengths) -> list[tuple[int, int]]:
    """``(start, end)`` of each list laid back to back with ``lengths``."""
    starts = list(accumulate(lengths.tolist(), initial=0))
    return list(zip(starts, starts[1:]))


def _ranked_lists(size: int, columns) -> RankedLists:
    """``size`` nodes from ``(node, ids, scores)`` given in ascending node
    order; absent nodes get an empty list.  One python step per given
    node, not per node of ``size``."""
    counts = [0] * (size + 1)
    ids, scores = array("i"), array("d")
    for node, column_ids, column_scores in columns:
        ids.extend(column_ids)
        scores.extend(column_scores)
        counts[node + 1] += len(column_ids)
    return RankedLists(array("i", accumulate(counts)), ids, scores)


def merge_batch_evidence(
    sources,
    n_entities: int,
    id_space: int,
    k: int,
    cut: AdaptiveCut = None,
) -> tuple[list[CandidateList], RankedLists]:
    """A batch's ``(value_1, value_2)`` from per-source
    :class:`BatchEvidence`.

    Rows: per batch entity, :func:`select_row` over the union of the
    sources' rows.  Columns: the sources' disjoint columns stitched by
    column id.
    """
    rows = [
        (_spans(source.row_lengths), source.row_ids.tolist(), source.row_scores.tolist())
        for source in sources
    ]
    value_1: list[CandidateList] = []
    for position in range(n_entities):
        ids: list[int] = []
        sums: list[float] = []
        for spans, row_ids, row_scores in rows:
            start, end = spans[position]
            ids += row_ids[start:end]
            sums += row_scores[start:end]
        value_1.append(_select_row(ids, sums, k, cut))
    return value_1, _stitch_columns(sources, id_space)


def _stitch_columns(sources, id_space: int) -> RankedLists:
    """The sources' disjoint columns as one :class:`RankedLists` over
    ``id_space`` nodes, by column id (source order on a repeat)."""
    flat = [(source.col_ids.tolist(), source.col_scores.tolist()) for source in sources]
    pieces = sorted(
        (node, index, start, end)
        for index, source in enumerate(sources)
        for node, (start, end) in zip(source.col_nodes.tolist(), _spans(source.col_lengths))
    )
    return _ranked_lists(
        id_space,
        (
            (node, flat[index][0][start:end], flat[index][1][start:end])
            for node, index, start, end in pieces
        ),
    )


def retained_edges(
    value_candidates_1: Sequence[CandidateList],
    value_candidates_2: Sequence[CandidateList],
) -> EdgeArrays:
    """Undirected union of the directed top-K ``beta`` edges, as arrays.

    Preserves the first-insertion order (side 1 sweeps first, then side
    2 adds edges not already retained) of
    :func:`tests.graph.dict_reference.retained_beta_edges`, so downstream
    ``gamma`` float accumulation visits edges in the identical order.
    """
    sources = array("i")
    targets = array("i")
    weights = array("d")
    seen: set[tuple[int, int]] = set()
    for eid1, candidates in enumerate(value_candidates_1):
        for eid2, weight in candidates:
            sources.append(eid1)
            targets.append(eid2)
            weights.append(weight)
            seen.add((eid1, eid2))
    for eid2, candidates in enumerate(value_candidates_2):
        for eid1, weight in candidates:
            if (eid1, eid2) not in seen:
                sources.append(eid1)
                targets.append(eid2)
                weights.append(weight)
    return sources, targets, weights


def _gamma_sparse_rows(
    edges: EdgeArrays,
    adjacency1: CSRAdjacency,
    adjacency2: CSRAdjacency,
):
    """Yield ``(target ids, gamma sums)`` per KB1 source, in order.

    Every retained beta edge ``(i, j, w)`` adds ``w`` to ``gamma[s][t]``
    for every ``(s, t)`` in ``in1(i) x in2(j)``.  Edges are grouped per
    source ``s`` (preserving edge order within each group) so one dense
    scratch row per source accumulates all its targets without hashing.
    """
    n1, n2 = len(adjacency1), len(adjacency2)
    edge_sources = edges[0].tolist()
    edge_weights = edges[2].tolist()
    in1 = adjacency1.to_lists()
    in2 = adjacency2.to_lists()
    edge_targets = [in2[target] for target in edges[1]]

    source_edges: list[list[int]] = [[] for _ in range(n1)]
    for edge, eid1 in enumerate(edge_sources):
        for source in in1[eid1]:
            source_edges[source].append(edge)

    scratch = [0.0] * n2
    for source in range(n1):
        touched: list[int] = []
        append = touched.append
        for edge in source_edges[source]:
            weight = edge_weights[edge]
            for target in edge_targets[edge]:
                value = scratch[target]
                if value != 0.0:
                    scratch[target] = value + weight
                else:
                    scratch[target] = weight
                    append(target)
        sums = [scratch[target] for target in touched]
        yield touched, sums
        for target in touched:
            scratch[target] = 0.0


def accumulate_gamma(
    edges: EdgeArrays,
    adjacency1: CSRAdjacency,
    adjacency2: CSRAdjacency,
) -> list[dict[int, float]]:
    """Per-KB1-entity ``gamma`` rows as dicts (oracle-comparable view).

    Same row values as the accumulation loop of
    :func:`tests.graph.dict_reference.neighbor_evidence`; used by the
    partition kernels and the equivalence tests.
    """
    return [
        dict(zip(ids, sums))
        for ids, sums in _gamma_sparse_rows(edges, adjacency1, adjacency2)
    ]


def gamma_topk(
    edges: EdgeArrays,
    adjacency1: CSRAdjacency,
    adjacency2: CSRAdjacency,
    k: int,
    cut: AdaptiveCut = None,
) -> tuple[list[CandidateList], list[CandidateList]]:
    """Fused gamma propagation + transpose + top-K for both sides."""
    n2 = len(adjacency2)
    column_ids: list[list[int]] = [[] for _ in range(n2)]
    column_sums: list[list[float]] = [[] for _ in range(n2)]
    side1: list[CandidateList] = []
    for source, (ids, sums) in enumerate(
        _gamma_sparse_rows(edges, adjacency1, adjacency2)
    ):
        side1.append(_select_row(ids, sums, k, cut))
        for target, value in zip(ids, sums):
            column_ids[target].append(source)
            column_sums[target].append(value)
    side2 = [
        _select_row(ids, sums, k, cut)
        for ids, sums in zip(column_ids, column_sums)
    ]
    return side1, side2
