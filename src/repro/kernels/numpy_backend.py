"""Vectorised kernels over the interned arrays.

Strategy: expand every suggested comparison (or in-neighbor pair) into
flat parallel arrays *in reference order*, collapse duplicate pairs with
one sort + ``np.bincount``, and prune per node from the grouped
nonzeros.  ``np.bincount`` accumulates its weights with a sequential
C loop in input order, so each pair's float sum is built in exactly the
block/edge order of the dict reference -- the results are bit-identical,
not merely approximately equal.  The batch kernels' sorts are value
sorts of packed int64 keys wherever the keys' bit widths fit in 63
(DESIGN.md, "Grouped top-K as one value sort").

Callers reach this module through :func:`repro.kernels.get_backend`
(offline) or look its kernels up as module attributes at call time
(serving), never through ``from ... import``.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

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
    """Collapse duplicate ``(row, col)`` pairs, summing in input order.

    The pairs are grouped by one value sort of ``key << bits | position``
    keys when those fit in 63 bits (``np.unique`` otherwise); the sums
    are then built by ``bincount`` over the input in its own order.
    """
    keys = rows * n2 + cols
    position_bits = (len(keys) - 1).bit_length()
    if len(keys) and int(keys.max()).bit_length() + position_bits <= 63:
        keys <<= position_bits
        keys |= np.arange(len(keys), dtype=np.int64)
        keys.sort()
        sorted_keys = keys >> position_bits
        first = np.empty(len(keys), dtype=bool)
        first[0] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
        unique_keys = sorted_keys[first]
        del sorted_keys
        keys &= (1 << position_bits) - 1
        inverse = np.empty(len(keys), dtype=np.int64)
        inverse[keys] = np.cumsum(first) - 1
    else:
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

    The per-block candidate arrays are concatenated (mapped int32
    posting slices are consumed as-is -- no per-token python lists),
    block weights are expanded alongside, and duplicate candidates are
    collapsed with ``unique`` + ``bincount``.  ``bincount`` sums each
    bin sequentially in input order, so every candidate's float total is
    built in exactly the block visit order of the dict accumulation --
    bit-identical sums.  Candidates return in ascending id order; all
    consumers rank under the total order ``(-score, id)``, which is
    insensitive to row order.
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
    smallest candidate id -- realising the exact total order of
    :func:`repro.graph.pruning.top_k_candidates` without sorting the
    whole row.  Only the <= k survivors are then ordered (``lexsort``
    on ``(-score, id)``).
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


def _empty(n: int) -> RankedLists:
    """``n`` empty candidate lists."""
    return RankedLists(
        np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0)
    )


def _group_ranks(lengths: "np.ndarray") -> "np.ndarray":
    """Each entry's position inside its group, for groups laid out
    back to back with the given lengths."""
    starts = np.cumsum(lengths) - lengths
    return np.arange(int(lengths.sum()), dtype=np.int64) - np.repeat(starts, lengths)


def _adaptive_lengths(
    scores: "np.ndarray", lengths: "np.ndarray", gap_ratio: float, minimum: int
) -> "np.ndarray":
    """:func:`~repro.graph.pruning.adaptive_cut` of every ranked list at
    once: the cut lengths of the lists laid out back to back in
    ``scores`` with the given ``lengths``.

    One step per rank position across all lists that are still uncut, so
    each list's running sum is added in list order, exactly the scalar
    loop's ``kept_weight``: the same floats, the same comparisons.
    """
    lengths = lengths.copy()
    long = np.flatnonzero(lengths > minimum)
    if not long.size:
        return lengths
    starts = (np.cumsum(lengths) - lengths)[long]
    remaining = lengths[long]
    running = np.zeros(long.size)
    for position in range(minimum):
        running += scores[starts + position]
    for position in range(minimum, int(remaining.max())):
        # Lists cut earlier have remaining == their cut <= position.
        rows = np.flatnonzero(remaining > position)
        weights = scores[starts[rows] + position]
        dropped = weights < gap_ratio * (running[rows] / position)
        remaining[rows[dropped]] = position
        running[rows] += weights
    lengths[long] = remaining
    return lengths


def _cut_grouped(
    ids: "np.ndarray", scores: "np.ndarray", lengths: "np.ndarray", cut: AdaptiveCut
) -> tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """Ranked lists laid back to back, each cut by ``cut``: the kept
    ``(ids, scores, lengths)``."""
    if cut is None:
        return ids, scores, lengths
    cut_lengths = _adaptive_lengths(scores, lengths, cut[0], cut[1])
    keep = _group_ranks(lengths) < np.repeat(cut_lengths, lengths)
    return ids[keep], scores[keep], cut_lengths


ScoreRanks = tuple["np.ndarray", "np.ndarray"]
"""``(table, ranks)``: the distinct negated scores ascending, and each
score's index in that table (its dense rank under ``-score``)."""


def _score_ranks(scores: "np.ndarray") -> ScoreRanks | None:
    """Dense descending ranks of ``scores``, or None when ``-table[ranks]``
    would not give back the scores' bits: only a zero (``-0.0 ==
    0.0``) or a NaN shares one table entry between different bits."""
    negated = -scores
    table = np.unique(negated)
    if np.isnan(table[-1]) or not table.all():
        return None
    return table, np.searchsorted(table, negated)


def _grouped_order(
    groups: "np.ndarray",
    candidates: "np.ndarray",
    scores: "np.ndarray",
    n: int,
    keep: "np.ndarray",
    ranks: ScoreRanks | None,
    ties_sorted: bool,
) -> tuple["np.ndarray", "np.ndarray"]:
    """The ``(candidates, scores)`` that ``keep`` selects from all entries
    in ``(group, -score, candidate)`` order.

    One value sort of packed int64 keys ``group | rank | candidate`` when
    their bit widths fit in 63; the scores are read back from the rank
    table.  Wider inputs (or scores without exact ranks) take a lexsort.
    """
    if ranks is not None:
        table, rank = ranks
        rank_bits = (len(table) - 1).bit_length()
        id_bits = int(candidates.max()).bit_length()
        if (n - 1).bit_length() + rank_bits + id_bits <= 63:
            keys = (groups << (rank_bits + id_bits)) | (rank << id_bits) | candidates
            keys.sort()
            keys = keys[keep]
            ids = keys & ((1 << id_bits) - 1)
            return ids, -table[(keys >> id_bits) & ((1 << rank_bits) - 1)]
    keys = (-scores, groups) if ties_sorted else (candidates, -scores, groups)
    order = np.lexsort(keys)[keep]
    return candidates[order], scores[order]


def _topk_grouped(
    groups: "np.ndarray",
    candidates: "np.ndarray",
    scores: "np.ndarray",
    n: int,
    k: int,
    cut: AdaptiveCut,
    ties_sorted: bool = True,
    ranks: ScoreRanks | None = None,
) -> RankedLists:
    """Per-group top-K with the (-score, candidate id) ranking key, as
    one CSR :class:`RankedLists` over all ``n`` groups.

    ``ranks`` are :func:`_score_ranks` of ``scores``, computed here when
    not given (the two sides of one kernel call share them).  With
    ``ties_sorted``, the caller guarantees that within every group
    entries with equal scores appear in ascending candidate order (true
    of both ``_accumulate_pairs`` orientations, whose input is sorted by
    ``(row, col)``); only the lexsort of :func:`_grouped_order` relies on
    it.  No step is per group: an empty group costs one offset.
    """
    if len(groups) == 0 or k <= 0:
        return _empty(n)
    if ranks is None:
        ranks = _score_ranks(scores)
    counts = np.bincount(groups, minlength=n)
    kept = _group_ranks(counts) < k
    ids, ranked, lengths = _cut_grouped(
        *_grouped_order(groups, candidates, scores, n, kept, ranks, ties_sorted),
        np.minimum(counts, k),
        cut,
    )
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return RankedLists(offsets, ids, ranked)


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
) -> tuple[RankedLists, RankedLists]:
    """Fused beta accumulation + transpose + top-K for both sides."""
    pairs = _beta_pairs(interned)
    if pairs is None:
        return _empty(interned.n1), _empty(interned.n2)
    unique_rows, unique_cols, sums = pairs
    ranks = _score_ranks(sums)
    side1 = _topk_grouped(unique_rows, unique_cols, sums, interned.n1, k, cut, ranks=ranks)
    side2 = _topk_grouped(unique_cols, unique_rows, sums, interned.n2, k, cut, ranks=ranks)
    return side1, side2


def batch_evidence(
    interned: InternedBlocks,
    k: int,
    cut: AdaptiveCut = None,
) -> BatchEvidence:
    """One source's merge-ready batch value evidence: :func:`value_topk`'s
    arrays as they are.

    Rows keep their top ``k`` pairs *uncut* (the cut belongs to the
    merged row).  Every non-empty column ships its top ``k`` pairs cut
    by ``cut``: a KB2 entity's column lives wholly in one source, so it
    is already final.
    """
    rows, side2 = value_topk(interned, k)
    lengths = np.diff(side2.offsets)
    nodes = np.flatnonzero(lengths)
    col_ids, col_scores, col_lengths = _cut_grouped(
        side2.ids, side2.scores, lengths[nodes], cut
    )
    return BatchEvidence(
        np.diff(rows.offsets), rows.ids, rows.scores, nodes, col_lengths, col_ids, col_scores
    )


def _concat(parts, convert) -> "np.ndarray":
    """One array from per-source arrays (empty without sources)."""
    return np.concatenate([convert(part) for part in parts]) if parts else convert(())


def _stitch_columns(sources, id_space: int) -> RankedLists:
    """The sources' disjoint columns as one :class:`RankedLists` over
    ``id_space`` nodes: one stable sort by column id, one gather."""
    nodes = _concat([source.col_nodes for source in sources], _as_int64)
    lengths = _concat([source.col_lengths for source in sources], _as_int64)
    ids = _concat([source.col_ids for source in sources], _as_int64)
    scores = _concat([source.col_scores for source in sources], _as_float64)
    order = np.argsort(nodes, kind="stable")
    sorted_lengths = lengths[order]
    starts = (np.cumsum(lengths) - lengths)[order]
    take = np.repeat(starts, sorted_lengths) + _group_ranks(sorted_lengths)
    offsets = np.zeros(id_space + 1, dtype=np.int64)
    counts = np.bincount(nodes, weights=lengths, minlength=id_space).astype(np.int64)
    np.cumsum(counts, out=offsets[1:])
    return RankedLists(offsets, ids[take], scores[take])


def merge_batch_evidence(
    sources,
    n_entities: int,
    id_space: int,
    k: int,
    cut: AdaptiveCut = None,
) -> tuple[RankedLists, RankedLists]:
    """A batch's ``(value_1, value_2)`` from per-source
    :class:`BatchEvidence`, vectorised.

    Rows: grouped top-``k`` over the union of the sources' rows under
    ``(-score, id)``, then ``cut``.  Columns: the sources' disjoint
    columns stitched by column id.
    """
    groups = _concat(
        [np.repeat(np.arange(n_entities), _as_int64(s.row_lengths)) for s in sources],
        _as_int64,
    )
    ids = _concat([source.row_ids for source in sources], _as_int64)
    scores = _concat([source.row_scores for source in sources], _as_float64)
    value_1 = _topk_grouped(groups, ids, scores, n_entities, k, cut, ties_sorted=False)
    return value_1, _stitch_columns(sources, id_space)


def _side_arrays(lists) -> tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """``(lengths, ids, scores)`` of one side's candidate lists laid back
    to back: read off a :class:`RankedLists`' arrays, or gathered from
    plain tuples."""
    if isinstance(lists, RankedLists):
        offsets = _as_int64(lists.offsets)
        lo, hi = int(offsets[0]), int(offsets[-1])
        return (
            np.diff(offsets),
            _as_int64(lists.ids)[lo:hi],
            _as_float64(lists.scores)[lo:hi],
        )
    lengths = np.fromiter((len(ranked) for ranked in lists), dtype=np.int64, count=len(lists))
    ids = np.fromiter((c for ranked in lists for c, _ in ranked), dtype=np.int64)
    scores = np.fromiter((s for ranked in lists for _, s in ranked), dtype=np.float64)
    return lengths, ids, scores


def list_heads(lists, width: int) -> tuple[list[int], list[CandidateList]]:
    """Each candidate list's length and its first ``width`` pairs, as
    python ints and floats: one gather off the lists' arrays, no tuple
    built per whole list."""
    lengths, ids, scores = _side_arrays(lists)
    shown = np.minimum(lengths, width)
    at = np.repeat(np.cumsum(lengths) - lengths, shown) + _group_ranks(shown)
    pairs = iter(zip(ids[at].tolist(), scores[at].tolist()))
    return lengths.tolist(), [tuple(islice(pairs, count)) for count in shown.tolist()]


def retained_edges(value_candidates_1, value_candidates_2) -> EdgeArrays:
    """Undirected union of the directed top-K ``beta`` edges, as arrays.

    The first-insertion order of the dict reference's
    ``retained_beta_edges`` without a per-edge step: every side-1 edge
    in list order, then the side-2 edges whose pair side 1 did not
    retain, in list order.  A side-1 edge ``(s, t)`` finds its side-2
    twin among the <= K slots of column ``t``: one pass per slot.
    Weights are copied, never recomputed.
    """
    lengths1, targets1, weights1 = _side_arrays(value_candidates_1)
    lengths2, sources2, weights2 = _side_arrays(value_candidates_2)
    sources1 = np.repeat(np.arange(len(lengths1), dtype=np.int64), lengths1)
    targets2 = np.repeat(np.arange(len(lengths2), dtype=np.int64), lengths2)
    column_lengths = lengths2[targets1]
    column_starts = (np.cumsum(lengths2) - lengths2)[targets1]
    new = np.ones(len(sources2), dtype=bool)
    for slot in range(int(column_lengths.max(initial=0))):
        edges = np.flatnonzero(column_lengths > slot)
        at = column_starts[edges] + slot
        new[at[sources2[at] == sources1[edges]]] = False
    return (
        np.concatenate((sources1, sources2[new])),
        np.concatenate((targets1, targets2[new])),
        np.concatenate((weights1, weights2[new])),
    )


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
) -> tuple[RankedLists, RankedLists]:
    """Fused gamma propagation + transpose + top-K for both sides."""
    n1, n2 = len(adjacency1), len(adjacency2)
    pairs = _gamma_pairs(edges, adjacency1, adjacency2)
    if pairs is None:
        return _empty(n1), _empty(n2)
    unique_rows, unique_cols, sums = pairs
    ranks = _score_ranks(sums)
    side1 = _topk_grouped(unique_rows, unique_cols, sums, n1, k, cut, ranks=ranks)
    side2 = _topk_grouped(unique_cols, unique_rows, sums, n2, k, cut, ranks=ranks)
    return side1, side2
