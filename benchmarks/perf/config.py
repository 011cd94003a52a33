"""Sizes, pass counts, floors and the metric catalogue of the perf harness.

Everything a reader needs to interpret a result file is here: what runs at
which size, how many passes a timing has, and for every metric its unit,
direction, regression bound, emitting workloads and -- for a per-layer
metric -- the end-to-end metric it should move.  ``BENCHMARK.json`` at the
repo root repeats the part an automated driver gates;
``tests/test_harness.py`` keeps the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass

PROFILES = ("restaurant", "rexa_dblp", "bbc_dbpedia", "yago_imdb")
WORKLOADS = ("offline", "serve_frozen", "serve_live", "serve_sharded")
SERVING = WORKLOADS[1:]

CORPUS_SEED = 424
"""Generator seed of the cached corpus (the offline pairs and the 100k
serving pair).  ``--seed`` drives what is asked of it: entity order in
``offline``, query choice and the edit stream in the serving workloads."""

YAGO_BASE_N2 = 7000
"""KB2 entities of ``yago_imdb`` at scale 1 (2800 matches + 4200 extras)."""

SHARDS = 2
QUERY_EDIT_RATIO = 4
"""Queries per edit in the ``serve_live`` mixed stream."""
EDIT_MIX = (("reupsert", 0.7), ("new", 0.1), ("delete", 0.2))

# Timed passes per phase, each after one discarded warm-up pass.  A pass of
# ``offline`` is ingest + one sweep of the four pairs; of ``serve_frozen`` and
# ``serve_sharded`` one pass of single queries + one batch; of the ``serve_live``
# stream a fresh engine (its set-up) + the mixed stream.
SETUP_PASSES = 3  # serve_frozen, serve_sharded: set-ups before anything else
OFFLINE_PASSES = 5
FROZEN_PASSES = 5
SHARDED_PASSES = 5
LIVE_STREAM_PASSES = 5
LIVE_BATCH_PASSES = 2
QUICK_PASSES = 2
"""``--quick`` caps every count above at this."""

# Under a time budget (``--seconds``, what BENCHMARK.json's driver passes)
# pass counts are cut, never sizes.
BUDGET_PASSES = 3
"""... every count above is capped at this, so a run makes the same passes
whatever the commit's speed;"""
MIN_TIMED_PASSES = 1
"""... and a phase stops repeating early once the budget is spent (a much
slower host), but never before this many timed passes."""

WIRE_FLOOR_SAMPLES = 30
HOT_TOKENS = 50
"""Hottest query tokens re-fetched after an epoch bump (``live.posting_merge_us``)."""

F1_FLOOR = {
    # A little under what HEAD reaches on the corpus: offline, the lowest pair
    # is at 0.90-0.91 whatever the seed's entity order; single served queries,
    # which see no neighbour evidence from the rest of KB1, reach 0.49-0.56
    # over thirty seeds.  A resolve, or a workload's served decisions, under
    # its floor is a failed operation.
    "restaurant": 0.94,
    "rexa_dblp": 0.94,
    "bbc_dbpedia": 0.85,
    "yago_imdb": 0.85,
    "served": 0.45,
}


@dataclass(frozen=True)
class Sizes:
    """One size table.  No option changes a size: ``--quick`` selects the
    other table, ``--seconds`` only cuts pass counts."""

    offline: dict[str, float]  # profile -> scaled_profile() factor
    index_n2: int  # KB2 entities behind the serving index
    warmup_queries: int  # answered in every set-up, before anything is timed
    frozen_queries: int  # distinct cache-cold match calls per pass
    frozen_batch: int
    sharded_queries: int
    sharded_batch: int
    live_stream_ops: int  # one pass of the mixed stream: QUERY_EDIT_RATIO queries per edit
    live_batch_edits: int  # edits applied before the batch under the delta
    live_batch: int
    live_delta: int  # bulk edits continue until the delta holds this many
    live_verify: int  # queries asked under the delta, after compaction, cold
    small_batch: int  # second point of the batch-cost intercept


FULL = Sizes(
    offline={"restaurant": 3, "rexa_dblp": 1, "bbc_dbpedia": 1.5, "yago_imdb": 1},
    index_n2=100_000,
    warmup_queries=500,
    frozen_queries=1000,
    frozen_batch=1000,
    sharded_queries=1000,
    sharded_batch=500,
    live_stream_ops=250,
    live_batch_edits=1200,
    live_batch=500,
    live_delta=5000,
    live_verify=1000,
    small_batch=100,
)
QUICK = Sizes(
    offline={"restaurant": 1, "rexa_dblp": 0.15, "bbc_dbpedia": 0.25, "yago_imdb": 0.15},
    index_n2=2000,
    warmup_queries=100,
    frozen_queries=200,
    frozen_batch=60,
    sharded_queries=200,
    sharded_batch=60,
    live_stream_ops=100,
    live_batch_edits=30,
    live_batch=40,
    live_delta=80,
    live_verify=60,
    small_batch=20,
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float  # relative worsening that counts as a regression
    workloads: tuple[str, ...]
    definition: str


TIMING_BOUND = 0.25
"""Regression bound of every wall-clock metric.  The ISSUE asked for 0.10;
ten driver-form runs of one commit on the shared 2-core sizing host spread
(quartile distance over median) by 0.02-0.11, and the driver wants a spread
under a third of the bound."""

END_TO_END = (
    Metric("setup_s", "s", "lower", TIMING_BOUND, WORKLOADS,
           "offline: constructing the eight KnowledgeBase objects, summed; serving: "
           "index build + save (+ shard split) in the corpus child + mmap load + "
           "engine/router construction + worker hello + warm-up queries; median over passes"),
    Metric("peak_rss_mb", "MB", "lower", 0.25, WORKLOADS,
           "ru_maxrss of the measuring process before the traced pass; the ISSUE's "
           "0.05 holds for offline, but the batch path's 260 MB transients leave the "
           "serving heap 0, 1 or 2 steps of 50 MB higher from run to run (spread 0.05-0.13)"),
    Metric("failed_share", "ratio", "lower", 0.0, WORKLOADS,
           "failed / attempted operations; 0 at HEAD, so BENCHMARK.json cannot list it "
           "(the driver's result line carries failed and attempted)"),
    Metric("f1_min", "ratio", "higher", 0.25, WORKLOADS,
           "offline: lowest F1 of the four pairs; serving: F1 of the single-query decisions "
           "against the pair's ground truth; deterministic per seed (run.py diff compares it "
           "exactly), but each seed asks other queries: over ten seeds it spreads by 0.02-0.09, "
           "so the F1 floors, not this bound, are what catches a quality loss"),
    Metric("query_p50_ms", "ms", "lower", TIMING_BOUND, WORKLOADS,
           "median latency of one client call, pooled over timed passes: one match "
           "(serve_live: the mixed stream's queries); offline: one resolve"),
    Metric("query_p99_ms", "ms", "lower", TIMING_BOUND, WORKLOADS,
           "nearest-rank p99 of the same pooled sample (offline: the slowest resolve)"),
    Metric("query_qps", "1/s", "higher", TIMING_BOUND, WORKLOADS,
           "client calls completed per wall second of a pass, median over passes "
           "(serve_live: stream queries over stream wall, edits included)"),
    Metric("batch_qps", "1/s", "higher", TIMING_BOUND, WORKLOADS,
           "batch size over median wall seconds of match_batch; offline: KB1 entities "
           "over median wall seconds of a sweep (resolve is the batch of all of KB1)"),
    *(Metric(f"resolve_{p}_s", "s", "lower", TIMING_BOUND, ("offline",),
             f"median wall time of one MinoanER.resolve of the {p} pair")
      for p in PROFILES),
    Metric("edit_p50_ms", "ms", "lower", TIMING_BOUND, ("serve_live",),
           "median latency of one upsert/delete including the ledger fsync"),
    Metric("compact_s", "s", "lower", TIMING_BOUND, ("serve_live",),
           "wall time of engine.compact()"),
    Metric("compact_stall_ms", "ms", "lower", TIMING_BOUND, ("serve_live",),
           "longest match latency the client saw while compact() ran"),
)

BETTER = {metric.name: metric.better for metric in END_TO_END}

UNGATED = ("failed_share", "query_p99_ms")
GATED = tuple(m for m in END_TO_END if m.workloads == WORKLOADS and m.name not in UNGATED)
"""The end-to-end metrics BENCHMARK.json lists.  Its driver wants every listed
metric from every workload, never a 0 (``failed_share``), and rejects a
benchmark whose ten-run quartile spread exceeds the metric's bound: a pass's
p99 rests on its 10 slowest calls and spread by 0.10-0.29 (``query_p99_ms``)."""


@dataclass(frozen=True)
class LayerGroup:
    """Per-layer metrics with one prediction: which end-to-end metric they
    should move, on which workloads, and which they should leave alone."""

    names: tuple[str, ...]
    moves: str
    on: tuple[str, ...]
    leaves: str


def _per_profile(*templates: str) -> tuple[str, ...]:
    return tuple(t.format(p=p) for t in templates for p in PROFILES)


LAYER_GROUPS = (
    LayerGroup(_per_profile("pipeline.{p}.statistics_s", "pipeline.{p}.blocking_s",
                            "pipeline.{p}.graph_s", "pipeline.{p}.matching_s",
                            "blocking.{p}.comparisons", "graph.{p}.edges", "matcher.{p}.matches"),
               "resolve_P_s", ("offline",), "any serving metric"),
    LayerGroup(("kernels.intern_s", "kernels.beta_s", "kernels.value_topk_s", "kernels.gamma_topk_s"),
               "resolve_yago_imdb_s", ("offline",), "resolve_restaurant_s"),
    LayerGroup(("parallel.rexa_dblp.resolve_s", "parallel.rexa_dblp.serial_backend_s"),
               "reported only", ("offline",), "-"),
    LayerGroup(("datasets.generate_s", "trace.overhead"), "reported only", WORKLOADS, "-"),
    LayerGroup(("index.build_s", "index.save_s", "index.file_mb"),
               "setup_s, peak_rss_mb", SERVING, "query_*"),
    LayerGroup(("index.load_mmap_ms", "engine.warmup_s"),
               "setup_s, peak_rss_mb", ("serve_frozen", "serve_sharded"), "query_*"),
    LayerGroup(("planner.split_s", "planner.shard_file_mb", "router.spawn_s"),
               "setup_s, peak_rss_mb", ("serve_sharded",), "query_*"),
    LayerGroup(("cache.probe_us", "kb.tokenise_us", "rules.single_us", "io.encode_us"),
               "query_p50_ms, query_qps", ("serve_frozen", "serve_sharded"), "resolve_*"),
    LayerGroup(("index.postings_us", "kernels.row_accumulate_us", "kernels.row_select_us",
                "engine.residual_us", "engine.tokens_per_query", "engine.posting_ids_per_query",
                "engine.candidates_per_query", "cache.hit_us"),
               "query_p50_ms, query_qps", ("serve_frozen",), "resolve_*"),
    LayerGroup(("engine.batch1000_s", "engine.batch100_s", "engine.batch_fixed_s",
                "engine.batch.value_evidence_s"),
               "batch_qps", ("serve_frozen",), "query_p50_ms"),
    LayerGroup(("live.delta0_p50_ms", "live.gate_overhead_us", "live.handle_pin_us",
                "admission.admit_us", "admission.on_p50_ms"),
               "query_p50_ms", ("serve_live",), "serve_frozen"),
    LayerGroup(("live.query_after_edit_ms", "live.query_no_edit_ms", "live.posting_merge_us",
                "live.posting_merge_ids", "live.readonly_delta_p50_ms", "live.delta5k_p50_ms",
                "live.delta_size", "live.tombstones"),
               "query_p50_ms, query_p99_ms, query_qps, batch_qps", ("serve_live",),
               "serve_frozen, serve_sharded"),
    LayerGroup(("live.upsert_us", "live.delete_us", "ledger.append_us", "ledger.bytes_per_edit"),
               "edit_p50_ms", ("serve_live",), "query_* elsewhere"),
    LayerGroup(("live.compact_build_s", "live.compact_swap_s", "live.compact_file_mb",
                "live.queries_during_compact"),
               "compact_s, compact_stall_ms", ("serve_live",), "-"),
    LayerGroup(("router.wire_floor_ms", "protocol.encode_us", "protocol.decode_us",
                "protocol.request_bytes", "protocol.reply_bytes", "worker.service_ms",
                "worker.slowest_service_ms", "merge.single_us", "router.local_us",
                "router.requests_per_query", "router.failures", "router.hedge_fired",
                "worker.rss_mb"),
               "query_p50_ms, query_p99_ms, query_qps", ("serve_sharded",), "serve_frozen"),
    LayerGroup(("router.batch500_s",), "batch_qps", ("serve_sharded",), "-"),
)
"""Names carry the full sizes (``batch1000``, ``delta5k``, ``batch500``);
``--quick`` reports its smaller sizes under the same names."""

_UNIT_SUFFIX = (
    ("_us", "us"), ("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("_bytes", "B"),
    ("bytes_per_edit", "B"), ("trace.overhead", "ratio"),
)


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name; anything else is a count."""
    for suffix, unit in _UNIT_SUFFIX:
        if name.endswith(suffix):
            return unit
    return "count"


def layer_metrics() -> list[tuple[str, str, str]]:
    """``(name, unit, better)`` of every catalogued per-layer metric."""
    return [
        (name, layer_unit(name), "higher" if name == "live.queries_during_compact" else "lower")
        for group in LAYER_GROUPS
        for name in group.names
    ]


def layer_workloads() -> dict[str, tuple[str, ...]]:
    """Per-layer metric name -> the workloads that measure it."""
    return {name: group.on for group in LAYER_GROUPS for name in group.names}
