"""Vectorised kernels over the interned arrays (optional numpy backend).

Strategy: expand every suggested comparison (or in-neighbor pair) into
flat parallel arrays *in reference order*, collapse duplicate pairs with
``np.unique`` + ``np.bincount``, and prune per node from the grouped
nonzeros.  ``np.bincount`` accumulates its weights with a sequential
C loop in input order, so each pair's float sum is built in exactly the
block/edge order of the dict reference -- the results are bit-identical,
not merely approximately equal.

The module imports numpy lazily-at-import; callers go through
:mod:`repro.kernels.dispatch`, which only selects this backend when the
import succeeds.  Core stays dependency-free.
"""

from __future__ import annotations

import numpy as np

from repro.graph.blocking_graph import CandidateList
from repro.graph.pruning import adaptive_cut
from repro.kernels.interning import CSRAdjacency, EdgeArrays, InternedBlocks

name = "numpy"

AdaptiveCut = tuple[float, int] | None


def is_available() -> bool:
    return True


def _as_int64(buffer) -> "np.ndarray":
    if isinstance(buffer, np.ndarray):
        # Already an array (e.g. an int32 view over a mapped index
        # section): convert without a buffer-protocol round trip.
        return buffer.astype(np.int64, copy=False)
    if len(buffer) == 0:
        return np.empty(0, dtype=np.int64)
    if isinstance(buffer, list):
        return np.asarray(buffer, dtype=np.int64)
    return np.frombuffer(buffer, dtype=np.intc).astype(np.int64)


def _as_float64(buffer) -> "np.ndarray":
    if isinstance(buffer, np.ndarray):
        return buffer.astype(np.float64, copy=False)
    if len(buffer) == 0:
        return np.empty(0, dtype=np.float64)
    if isinstance(buffer, list):
        return np.asarray(buffer, dtype=np.float64)
    return np.frombuffer(buffer, dtype=np.float64)


def _expand_slots(counts_inner: "np.ndarray", counts_pair: "np.ndarray"):
    """Per-contribution ``(outer slot, inner slot)`` indices.

    For each group ``g`` (a block or an edge), ``counts_pair[g] =
    outer[g] * counts_inner[g]`` contributions are laid out inner-fastest
    -- the reference loops' iteration order.
    """
    total = int(counts_pair.sum())
    starts = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(counts_pair)))[:-1]
    local = np.arange(total, dtype=np.int64) - np.repeat(starts, counts_pair)
    inner_expanded = np.repeat(counts_inner, counts_pair)
    outer_slot = local // inner_expanded
    inner_slot = local - outer_slot * inner_expanded
    return outer_slot, inner_slot


def _accumulate_pairs(
    rows: "np.ndarray",
    cols: "np.ndarray",
    weights: "np.ndarray",
    n2: int,
):
    """Collapse duplicate ``(row, col)`` pairs, summing in input order."""
    keys = rows * n2 + cols
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    sums = np.bincount(inverse, weights=weights)
    unique_rows = unique_keys // n2
    unique_cols = unique_keys - unique_rows * n2
    return unique_rows, unique_cols, sums


def accumulate_row(
    weighted_postings,
    as_arrays: bool = False,
) -> tuple[list[int], list[float]]:
    """Accumulate one entity's ``beta`` row from weighted posting lists.

    Vectorised counterpart of the python backend's ``accumulate_row``:
    the per-block candidate arrays are concatenated (mapped int32
    posting slices are consumed as-is -- no per-token python lists),
    block weights are expanded alongside, and duplicate candidates are
    collapsed with ``unique`` + ``bincount``.  ``bincount`` sums each
    bin sequentially in input order, so every candidate's float total is
    built in exactly the block visit order of the dict accumulation --
    bit-identical sums.  Candidates return in ascending id order (the
    python backend returns first-touch order); all consumers rank under
    the total order ``(-score, id)``, which is insensitive to row order.
    ``as_arrays`` hands back the id / sum arrays themselves instead of
    python lists (what :func:`row_evidence` selects from in place).
    """
    chunks = []
    weights: list[float] = []
    counts: list[int] = []
    for weight, candidates in weighted_postings:
        ids = np.asarray(candidates)
        if ids.shape[0] == 0:
            continue
        chunks.append(ids)
        weights.append(weight)
        counts.append(ids.shape[0])
    if not chunks:
        return [], []
    cols = np.concatenate(chunks)
    expanded = np.repeat(
        np.asarray(weights, dtype=np.float64), np.asarray(counts, dtype=np.int64)
    )
    unique_cols, inverse = np.unique(cols, return_inverse=True)
    sums = np.bincount(inverse, weights=expanded)
    if as_arrays:
        return unique_cols, sums
    return unique_cols.tolist(), sums.tolist()


def row_evidence(
    weighted_postings,
    keep: int,
    margin: int,
    probe: int | None = None,
):
    """One query's merge-ready value evidence, fused.

    :func:`accumulate_row` feeding straight into :func:`select_row`
    without materialising python lists in between: the uncopied arrays
    go to selection, the ``margin`` smallest touched ids fall out of
    ``unique``'s ascending order as a prefix slice, and the ``probe``
    membership test is one vectorised comparison.  Returns
    ``(ranked row, mins, touched count, probe touched)``.
    """
    unique_cols, sums = accumulate_row(weighted_postings, as_arrays=True)
    if not len(unique_cols):
        return (), [], 0, False
    row = select_row(unique_cols, sums, keep, None)
    mins = unique_cols[:margin].tolist()
    touched = probe is not None and bool((unique_cols == int(probe)).any())
    return row, mins, int(unique_cols.shape[0]), touched


def select_row(
    ids,
    sums,
    k: int,
    cut: AdaptiveCut = None,
) -> CandidateList:
    """Top-K of one sparse row, ranked by ``(-score, id)``.

    Fused selection: one ``np.partition`` finds the k-th largest score,
    strictly-greater entries survive outright (provably at most k-1 of
    them), and the remaining slots are filled from the threshold ties by
    smallest candidate id -- realising the exact bounded-heap total
    order of the python backend without sorting the whole row.  Only the
    <= k survivors are then ordered (``lexsort`` on ``(-score, id)``).
    Scores are carried through untouched, so the returned floats are
    bit-identical to the accumulation's.
    """
    if k <= 0:
        return ()
    ids_arr = _as_int64(ids)
    scores = _as_float64(sums)
    n = ids_arr.shape[0]
    if n == 0:
        return ()
    if n > k:
        threshold = np.partition(scores, n - k)[n - k]
        above = scores > threshold
        need = k - int(above.sum())
        ties = scores == threshold
        tie_ids = ids_arr[ties]
        if need < tie_ids.shape[0]:
            # Ties rank by ascending id: keep the `need` smallest ids.
            cutoff = np.partition(tie_ids, need - 1)[need - 1]
            keep = above | (ties & (ids_arr <= cutoff))
        else:
            keep = above | ties
        ids_arr = ids_arr[keep]
        scores = scores[keep]
    order = np.lexsort((ids_arr, -scores))
    ranked = tuple(zip(ids_arr[order].tolist(), scores[order].tolist()))
    if cut is not None:
        ranked = adaptive_cut(ranked, cut[0], cut[1])
    return ranked


def _topk_grouped(
    groups: "np.ndarray",
    candidates: "np.ndarray",
    scores: "np.ndarray",
    n: int,
    k: int,
    cut: AdaptiveCut,
) -> list[CandidateList]:
    """Per-group top-K with the (-score, candidate id) ranking key.

    Precondition: within every group, entries with equal scores appear
    in ascending candidate order (true of both ``_accumulate_pairs``
    orientations, whose input is sorted by ``(row, col)``).  The stable
    two-key lexsort then realises the full ``(group, -score, candidate)``
    order without a third sort pass.
    """
    if len(groups) == 0 or k <= 0:
        return [()] * n
    if n == 1:
        # Batch of one: the grouped problem degenerates to a single row,
        # shared with the serving hot path's fused selection.
        return [select_row(candidates, scores, k, cut)]
    order = np.lexsort((-scores, groups))
    counts = np.bincount(groups, minlength=n)
    offsets = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(counts)))
    rank = np.arange(len(groups), dtype=np.int64) - np.repeat(offsets[:-1], counts)
    kept = order[rank < k]
    candidate_list = candidates[kept].tolist()
    score_list = scores[kept].tolist()
    kept_counts = np.minimum(counts, k).tolist()
    out: list[CandidateList] = []
    position = 0
    for node in range(n):
        take = kept_counts[node]
        ranked = tuple(
            zip(
                candidate_list[position : position + take],
                score_list[position : position + take],
            )
        )
        if cut is not None:
            ranked = adaptive_cut(ranked, cut[0], cut[1])
        out.append(ranked)
        position += take
    return out


def _beta_pairs(interned: InternedBlocks):
    """Expanded ``(row, col, weight)`` arrays for every comparison, in
    block order, collapsed to unique pairs."""
    offsets1 = _as_int64(interned.side1_offsets)
    offsets2 = _as_int64(interned.side2_offsets)
    ids1 = _as_int64(interned.side1_ids)
    ids2 = _as_int64(interned.side2_ids)
    weights = _as_float64(interned.weights)
    len1 = np.diff(offsets1)
    len2 = np.diff(offsets2)
    counts = len1 * len2
    if int(counts.sum()) == 0:
        return None
    row_slot, col_slot = _expand_slots(len2, counts)
    rows = ids1[np.repeat(offsets1[:-1], counts) + row_slot]
    cols = ids2[np.repeat(offsets2[:-1], counts) + col_slot]
    expanded_weights = np.repeat(weights, counts)
    return _accumulate_pairs(rows, cols, expanded_weights, interned.n2)


def beta_sparse(interned: InternedBlocks):
    """Backend-native sparse ``beta``: collapsed ``(rows, cols, sums)``
    arrays (or None when there are no comparisons).

    This is the representation the fused ``value_topk`` consumes; the
    dict view of :func:`accumulate_beta` exists only as the
    oracle-comparable interface.
    """
    return _beta_pairs(interned)


def accumulate_beta(interned: InternedBlocks) -> list[dict[int, float]]:
    """Per-KB1-entity ``beta`` rows as dicts (oracle-comparable view)."""
    rows: list[dict[int, float]] = [dict() for _ in range(interned.n1)]
    pairs = _beta_pairs(interned)
    if pairs is None:
        return rows
    unique_rows, unique_cols, sums = pairs
    for eid1, eid2, weight in zip(
        unique_rows.tolist(), unique_cols.tolist(), sums.tolist()
    ):
        rows[eid1][eid2] = weight
    return rows


def value_topk(
    interned: InternedBlocks,
    k: int,
    cut: AdaptiveCut = None,
) -> tuple[list[CandidateList], list[CandidateList]]:
    """Fused beta accumulation + transpose + top-K for both sides."""
    pairs = _beta_pairs(interned)
    if pairs is None:
        return [()] * interned.n1, [()] * interned.n2
    unique_rows, unique_cols, sums = pairs
    side1 = _topk_grouped(unique_rows, unique_cols, sums, interned.n1, k, cut)
    side2 = _topk_grouped(unique_cols, unique_rows, sums, interned.n2, k, cut)
    return side1, side2


def _gamma_pairs(
    edges: EdgeArrays,
    adjacency1: CSRAdjacency,
    adjacency2: CSRAdjacency,
):
    """Expanded ``(source, target, weight)`` arrays for every in-neighbor
    pair of every retained edge, in edge order, collapsed to unique
    pairs.  Returns None when nothing propagates."""
    n2 = len(adjacency2)
    edge_sources, edge_targets, edge_weights = edges
    if len(edge_sources) == 0:
        return None
    sources = _as_int64(edge_sources)
    targets = _as_int64(edge_targets)
    weights = _as_float64(edge_weights)
    offsets1 = _as_int64(adjacency1.offsets)
    ids1 = _as_int64(adjacency1.ids)
    offsets2 = _as_int64(adjacency2.offsets)
    ids2 = _as_int64(adjacency2.ids)
    in_degree1 = np.diff(offsets1)[sources]
    in_degree2 = np.diff(offsets2)[targets]
    counts = in_degree1 * in_degree2
    if int(counts.sum()) == 0:
        return None
    source_slot, target_slot = _expand_slots(in_degree2, counts)
    gamma_sources = ids1[np.repeat(offsets1[:-1][sources], counts) + source_slot]
    gamma_targets = ids2[np.repeat(offsets2[:-1][targets], counts) + target_slot]
    expanded_weights = np.repeat(weights, counts)
    return _accumulate_pairs(gamma_sources, gamma_targets, expanded_weights, n2)


def accumulate_gamma(
    edges: EdgeArrays,
    adjacency1: CSRAdjacency,
    adjacency2: CSRAdjacency,
) -> list[dict[int, float]]:
    """Per-KB1-entity ``gamma`` rows as dicts (oracle-comparable view)."""
    rows: list[dict[int, float]] = [dict() for _ in range(len(adjacency1))]
    pairs = _gamma_pairs(edges, adjacency1, adjacency2)
    if pairs is None:
        return rows
    unique_rows, unique_cols, sums = pairs
    for source, target, weight in zip(
        unique_rows.tolist(), unique_cols.tolist(), sums.tolist()
    ):
        rows[source][target] = weight
    return rows


def gamma_topk(
    edges: EdgeArrays,
    adjacency1: CSRAdjacency,
    adjacency2: CSRAdjacency,
    k: int,
    cut: AdaptiveCut = None,
) -> tuple[list[CandidateList], list[CandidateList]]:
    """Fused gamma propagation + transpose + top-K for both sides."""
    n1, n2 = len(adjacency1), len(adjacency2)
    pairs = _gamma_pairs(edges, adjacency1, adjacency2)
    if pairs is None:
        return [()] * n1, [()] * n2
    unique_rows, unique_cols, sums = pairs
    side1 = _topk_grouped(unique_rows, unique_cols, sums, n1, k, cut)
    side2 = _topk_grouped(unique_cols, unique_rows, sums, n2, k, cut)
    return side1, side2
