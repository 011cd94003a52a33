"""The four workloads: what runs, what is timed, what the oracle checks.

Every workload is a closed loop with one client: the next call is made
when the previous one returned.  Each does the same four things in
order -- this seed's inputs from the corpus, set-up (timed, repeated), an
untraced measurement, and a traced pass over the same inputs -- and
returns a :class:`Result`.  The end-to-end half touches only the stable
public surface (``MinoanER``, ``MinoanERConfig``, ``KnowledgeBase``,
``ResolutionIndex.load``, ``MatchEngine.match/match_batch``,
``LiveEngine.upsert/delete/compact/attach_ledger``, ``UpsertLedger``,
``ShardRouter.spawn/close``; ``scaled_profile``, ``ResolutionIndex.build/
save`` and ``ShardPlanner.write`` run in the corpus child); anything deeper
lives in a :func:`probe` block of the traced pass and is skipped, by
name, when it has moved.

The first pass of every phase is a discarded warm-up.  Each timed pass
yields a metric as the ISSUE defines it -- a wall time, a p50 or p99 over
the pass's calls, calls per wall second -- and the best pass is reported
(:func:`harness.best` says why not the median pass).
"""

from __future__ import annotations

import shutil
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import config
import fixtures
import harness
from harness import median, percentile, timed, timed_passes
from tracing import Tracer


@dataclass
class Context:
    sizes: config.Sizes
    quick: bool
    seed: int
    seconds: float | None  # time budget of the untraced measurement; None: full counts
    untraced: bool  # measure the end-to-end metrics
    traced: bool  # run the traced pass and report per-layer metrics
    corpus: Path  # fixtures.ensure_corpus()
    workdir: Path  # index copies and ledgers; the caller removes it
    out_dir: Path  # trace-<workload>.json

    deadline: float | None = None  # set by measuring()

    def passes(self, full: int) -> int:
        """Timed passes of a phase whose full count is ``full``.  A
        traced-only run still needs one untraced pass as the base of
        ``trace.overhead``."""
        if not self.untraced:
            return 1
        if self.quick:
            full = min(full, config.QUICK_PASSES)
        return full if self.seconds is None else min(full, config.BUDGET_PASSES)

    def measuring(self) -> None:
        """Set-up is done: the time budget, if any, starts now."""
        if self.seconds is not None:
            self.deadline = time.perf_counter() + self.seconds


@dataclass
class Result:
    workload: str
    e2e: dict[str, float] = field(default_factory=dict)
    passes: dict[str, list[float]] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    skipped_probes: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def timing(self, name: str, per_pass: Sequence[float]) -> None:
        """Record a metric: its per-pass values, and as the reported value
        the best of them (see :func:`harness.best`)."""
        self.passes[name] = list(per_pass)
        self.samples[name] = len(per_pass)
        self.e2e[name] = harness.best(per_pass, config.BETTER[name])

    def mark_rss(self) -> None:
        """Peak RSS so far: taken before the traced pass, whose span list
        would otherwise count as the engine's memory."""
        self.e2e["peak_rss_mb"] = harness.peak_rss_mb()

    def close(self, check: harness.Checker) -> "Result":
        self.e2e["failed_share"] = check.failed_share
        self.attempted, self.failed, self.failures = check.attempted, check.failed, check.failures
        return self


@contextmanager
def probe(result: Result, *names: str) -> Iterator[None]:
    """Best-effort per-layer measurement: a probe that reaches for an
    import or attribute a refactor has moved costs the metrics it would
    have reported (``names``, listed under ``skipped_probes``), never the run."""
    try:
        yield
    except (ImportError, AttributeError) as error:
        result.skipped_probes.extend(f"{name}: {error}" for name in names)


def span_metrics(
    result: Result,
    tracer: Tracer,
    rows: dict[str, dict[str, float]],
    stages: dict[str, tuple[str, ...]],
    per: float | None,
    key: str = "self_us",
    scale: float = 1.0,
) -> None:
    """``metric = sum of the named spans' rows[key] / per * scale``; with
    ``per`` None, per call of those spans.  A metric none of whose spans
    could be wrapped is skipped, not reported as 0."""
    for metric, spans in stages.items():
        if not any(span in tracer.wrapped for span in spans):
            result.skipped_probes.append(f"{metric}: no wrap target of {', '.join(spans)} exists")
            continue
        found = [rows[span] for span in spans if span in rows]
        over = sum(row["calls"] for row in found) if per is None else per
        result.layers[metric] = sum(row[key] for row in found) / over * scale if over else 0.0


def finish_trace(ctx: Context, result: Result, tracer: Tracer, overhead: float, generate_s: float) -> None:
    """Write the trace file; report what every workload reports."""
    result.layers["trace.overhead"] = overhead
    result.layers["datasets.generate_s"] = generate_s
    result.skipped_probes.extend(tracer.skipped)
    tracer.write(
        ctx.out_dir / f"trace-{result.workload}.json",
        {"workload": result.workload, "seed": ctx.seed, "quick": ctx.quick},
    )


def record_queries(result: Result, passes_ms: Sequence[Sequence[float]], walls_s: Sequence[float]) -> None:
    """query_p50_ms / query_p99_ms / query_qps of each pass: the percentiles
    over the pass's call latencies, and calls per wall second of the pass."""
    result.timing("query_p50_ms", [median(p) for p in passes_ms])
    result.timing("query_p99_ms", [percentile(p, 0.99) for p in passes_ms])
    result.timing("query_qps", [len(p) / wall for p, wall in zip(passes_ms, walls_s)])
    result.samples["calls_per_pass"] = len(passes_ms[0])


# ----------------------------------------------------------------------
# offline
# ----------------------------------------------------------------------
PIPELINE_STAGES = {
    "statistics_s": ("pipeline.statistics",),
    "blocking_s": ("pipeline.blocking",),
    "graph_s": ("pipeline.graph",),
    "matching_s": ("pipeline.matching",),
}
KERNEL_STAGES = {
    "kernels.intern_s": ("kernels.intern",),
    "kernels.value_topk_s": ("kernels.value_topk",),
    "kernels.gamma_topk_s": ("kernels.gamma_topk",),
}


def offline(ctx: Context) -> Result:
    """``MinoanER.resolve`` on the paper's four dataset regimes."""
    from repro import KnowledgeBase, MinoanER, MinoanERConfig

    result = Result("offline")
    check = harness.Checker()
    pairs = fixtures.load_offline(ctx.corpus, ctx.seed)
    meta = fixtures.load_meta(ctx.corpus)
    kbs: dict[str, tuple[Any, Any]] = {}

    def ingest() -> float:
        began = time.perf_counter()
        for name, pair in pairs.items():
            kbs[name] = (KnowledgeBase(pair.kb1, name=f"{name}-1"), KnowledgeBase(pair.kb2, name=f"{name}-2"))
        return time.perf_counter() - began

    f1: dict[str, float] = {}

    def verify(name: str, resolved: Any) -> None:
        check.ran()
        matches = harness.digest(sorted(resolved.matches))
        if result.digests.setdefault(name, matches) != matches:
            check.fail(f"{name}: match set differs between repeats")
        f1[name] = resolved.evaluate(pairs[name].truth).f1
        if f1[name] < config.F1_FLOOR[name]:
            check.fail(f"{name}: F1 {f1[name]:.4f} under floor {config.F1_FLOOR[name]}")

    def one_pass() -> tuple[float, dict[str, float]]:
        """Ingest, then one sweep: the set-up passes are spread over the
        run like the resolves they serve."""
        ingest_s = ingest()
        times = {}
        for name in config.PROFILES:
            kb1, kb2 = kbs[name]
            times[name], resolved = timed(lambda: MinoanER(MinoanERConfig()).resolve(kb1, kb2))
            verify(name, resolved)
            del resolved
        return ingest_s, times

    ctx.measuring()
    passes = timed_passes(one_pass, ctx.passes(config.OFFLINE_PASSES), ctx.deadline, warmup=ctx.untraced)
    result.timing("setup_s", [ingest_s for ingest_s, _ in passes])
    sweeps = [times for _, times in passes]
    totals = [sum(times.values()) for times in sweeps]
    for name in config.PROFILES:
        result.timing(f"resolve_{name}_s", [times[name] for times in sweeps])
    # offline has no queries or batches of its own.  For the metrics every
    # workload emits, one client call is one resolve and a sweep is the batch
    # of all of KB1; their values follow from the four resolve_P_s above.
    record_queries(result, [[t * 1e3 for t in times.values()] for times in sweeps], totals)
    entities = sum(len(kb1) for kb1, _ in kbs.values())
    result.timing("batch_qps", [entities / t for t in totals])
    resolves = [result.e2e[f"resolve_{name}_s"] for name in config.PROFILES]
    result.e2e["query_p50_ms"] = median(resolves) * 1e3
    result.e2e["query_p99_ms"] = max(resolves) * 1e3
    result.e2e["query_qps"] = len(resolves) / sum(resolves)
    result.e2e["batch_qps"] = entities / sum(resolves)
    result.e2e["f1_min"] = min(f1.values())
    result.mark_rss()

    if ctx.traced:
        layers = result.layers
        with Tracer() as tracer:
            windows = {}
            traced_times = {}
            for op, name in enumerate(config.PROFILES):
                kb1, kb2 = kbs[name]
                tracer.op = op
                start = tracer.mark()
                traced_times[name], resolved = timed(lambda: MinoanER(MinoanERConfig()).resolve(kb1, kb2))
                windows[name] = tracer.by_name(start, tracer.mark())
                verify(name, resolved)
                with probe(result, f"blocking.{name}.comparisons", f"graph.{name}.edges"):
                    layers[f"blocking.{name}.comparisons"] = resolved.token_block_collection.total_comparisons()
                    layers[f"graph.{name}.edges"] = resolved.graph.edge_count()
                layers[f"matcher.{name}.matches"] = len(resolved.matches)
                if name == "yago_imdb":
                    yago = resolved
        for name, rows in windows.items():
            stages = {f"pipeline.{name}.{stage}": spans for stage, spans in PIPELINE_STAGES.items()}
            span_metrics(result, tracer, rows, stages, per=1.0, key="total_us", scale=1e-6)
        span_metrics(result, tracer, windows["yago_imdb"], KERNEL_STAGES, per=1.0, key="total_us", scale=1e-6)
        with probe(result, "kernels.beta_s"):
            from repro.kernels import InternedBlocks, get_backend

            kb1, kb2 = kbs["yago_imdb"]
            interned = InternedBlocks.from_blocks(yago.token_block_collection, len(kb1), len(kb2))
            backend = get_backend(MinoanERConfig().kernel_backend)
            layers["kernels.beta_s"] = timed(lambda: sum(1 for _ in backend.beta_sparse(interned)))[0]
        with probe(result, "parallel.rexa_dblp.resolve_s", "parallel.rexa_dblp.serial_backend_s"):
            from repro.parallel.context import ParallelContext
            from repro.parallel.pipeline import ParallelMinoanER

            kb1, kb2 = kbs["rexa_dblp"]
            for label, backend_name in (("resolve_s", "process"), ("serial_backend_s", "serial")):
                with ParallelContext(num_workers=2, backend=backend_name) as context:
                    took, parallel = timed(
                        lambda: ParallelMinoanER(MinoanERConfig(), context).resolve(kb1, kb2)
                    )
                layers[f"parallel.rexa_dblp.{label}"] = took
                check.ran()
                if harness.digest(sorted(parallel.matches)) != result.digests["rexa_dblp"]:
                    check.fail(f"parallel rexa_dblp ({backend_name}): match set differs from resolve")
        overhead = sum(traced_times.values()) / min(totals)
        finish_trace(ctx, result, tracer, overhead, meta["offline_generate_s"])
    return result.close(check)


# ----------------------------------------------------------------------
# serving: shared pieces
# ----------------------------------------------------------------------
def safe(call: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """``call`` with an exception turned into a ``None`` result, which the
    checker counts as a failed operation."""

    def guarded(item: Any) -> Any:
        try:
            return call(item)
        except Exception as error:  # a raised call is a failed operation, not a crash
            guarded.errors.append(repr(error))
            return None

    guarded.errors = []
    return guarded


def keys_of(check: harness.Checker, what: str, decisions: Sequence[Any], errors: Sequence[str] = ()) -> list[Any]:
    """Count the decisions as operations and reduce them to comparable keys."""
    keys = []
    for decision in decisions:
        check.ran()
        if decision is None:
            check.fail(f"{what}: call raised {errors[0] if errors else ''}")
            keys.append(None)
        else:
            if decision.degraded:
                check.fail(f"{what}: degraded decision for {decision.query_uri}")
            keys.append(harness.decision_key(decision))
    return keys


def served_f1(check: harness.Checker, keys: Sequence[Any], expect: Sequence[str | None]) -> float:
    """F1 of served decisions against the ground truth; under the floor is
    a failed operation."""
    found = {(i, key[0]) for i, key in enumerate(keys) if key is not None and key[0] is not None}
    truth = {(i, uri) for i, uri in enumerate(expect) if uri is not None}
    f1 = harness.f1_score(found, truth)
    check.ran()
    if f1 < config.F1_FLOOR["served"]:
        check.fail(f"served F1 {f1:.4f} under floor {config.F1_FLOOR['served']}")
    return f1


def single_pass(engine: Any, queries: Sequence[Any]) -> tuple[list[float], float, list[Any], list[str]]:
    """One cache-cold pass of single ``match`` calls: latencies, wall, decisions."""
    engine.cache.clear()
    call = safe(engine.match)
    wall_s, (latencies, decisions) = timed(lambda: harness.timed_calls(call, queries))
    return latencies, wall_s, decisions, call.errors


def measure_read_only(
    ctx: Context,
    result: Result,
    check: harness.Checker,
    engine: Any,
    queries: Sequence[Any],
    expect: Sequence[str | None],
    batch: Sequence[Any],
    passes: int,
    oracle: Any = None,
) -> None:
    """Passes of single queries and a batch (``serve_frozen`` and
    ``serve_sharded``), alternating, so that the singles are spread over the
    run as the batches are and not packed into its first seconds.

    Every pass must repeat the first pass's decisions; with an ``oracle``
    engine (unsharded, same file) the decisions must equal its own.
    """
    match_batch = safe(engine.match_batch)

    def one_pass() -> tuple[Any, float, Any]:
        single = single_pass(engine, queries)
        batch_s, answers = timed(lambda: match_batch(batch))
        return single, batch_s, answers

    done = timed_passes(one_pass, ctx.passes(passes), ctx.deadline, warmup=ctx.untraced)
    record_queries(result, [single[0] for single, _, _ in done], [single[1] for single, _, _ in done])
    result.timing("batch_qps", [len(batch) / batch_s for _, batch_s, _ in done])

    want = want_batch = None
    if oracle is not None:
        want = keys_of(check, "oracle", single_pass(oracle, queries)[2])
        want_batch = keys_of(check, "oracle batch", oracle.match_batch(batch))
    for (_, _, decisions, errors), _, answers in done:
        keys = keys_of(check, "match", decisions, errors)
        want = want or keys
        check.same("match", keys, want)
        if answers is None:
            check.ran(len(batch))
            check.fail(f"match_batch raised {match_batch.errors[:1]}", len(batch))
            continue
        keys = keys_of(check, "match_batch", answers)
        want_batch = want_batch or keys
        check.same("match_batch", keys, want_batch)
    result.e2e["f1_min"] = served_f1(check, want, expect)
    result.digests["decisions"] = harness.digest(want)
    result.digests["batch"] = harness.digest(want_batch)
    result.mark_rss()


QUERY_STAGES = {
    # Router-local, so serve_sharded reports them too.
    "cache.probe_us": ("cache.probe",),
    "kb.tokenise_us": ("kb.tokenise", "kb.statistics"),
    "rules.single_us": ("rules.single",),
    "io.encode_us": ("io.encode",),
}
ENGINE_STAGES = {
    "index.postings_us": ("index.postings",),
    "kernels.row_accumulate_us": ("kernels.row_accumulate",),
    "kernels.row_select_us": ("kernels.row_select",),
}


def traced_queries(
    result: Result,
    tracer: Tracer,
    engine: Any,
    queries: Sequence[Any],
    after_each: Callable[[], None] = lambda: None,
) -> tuple[float, dict[str, dict[str, float]]]:
    """One cache-cold traced pass: each query answered and encoded the way
    ``repro serve`` would.  Returns the traced ``match`` p50 (ms) and the
    span rows of the pass."""
    encode = None
    with probe(result, "io.encode_us"):
        from repro.serving.io import decision_to_json as encode

    engine.cache.clear()
    start = tracer.mark()
    latencies = []
    for op, query in enumerate(queries):
        tracer.op = op
        began = time.perf_counter()
        decision = engine.match(query)
        latencies.append((time.perf_counter() - began) * 1e3)
        if encode is not None:
            encode(decision)
        after_each()
    rows = tracer.by_name(start, tracer.mark())
    span_metrics(result, tracer, rows, QUERY_STAGES, per=len(queries))
    return median(latencies), rows


def setup_metric(result: Result, meta: dict[str, Any], parent: Sequence[float], shards: bool = False) -> None:
    """``setup_s``: the corpus child's build + save (+ split), each the
    median of its passes, plus this process's part."""
    child = median(meta["build_s"]) + median(meta["save_s"]) + (median(meta["split_s"]) if shards else 0.0)
    result.timing("setup_s", [child + seconds for seconds in parent])
    result.layers.update(
        {
            "index.build_s": median(meta["build_s"]),
            "index.save_s": median(meta["save_s"]),
            "index.file_mb": meta["file_mb"],
        }
    )


# ----------------------------------------------------------------------
# serve_frozen
# ----------------------------------------------------------------------
def serve_frozen(ctx: Context) -> Result:
    """``MatchEngine`` over the mmap index: single queries, then batches."""
    from repro.serving import MatchEngine, ResolutionIndex

    result = Result("serve_frozen")
    check = harness.Checker()
    sizes = ctx.sizes
    fixture = fixtures.load_serving(ctx.corpus, sizes, ctx.seed)
    queries = fixture.queries[: sizes.frozen_queries]
    expect = fixture.expect[: sizes.frozen_queries]
    batch = fixture.queries[: sizes.frozen_batch]
    warm = fixture.queries[: sizes.warmup_queries]

    def set_up() -> tuple[float, float, float, Any]:
        load_s, index = timed(lambda: ResolutionIndex.load(fixture.index_path, mmap=True))
        construct_s, engine = timed(lambda: MatchEngine(index))
        warm_s = timed(lambda: [engine.match(query) for query in warm])[0]
        return load_s, construct_s, warm_s, engine

    setups = timed_passes(set_up, ctx.passes(config.SETUP_PASSES))
    ctx.measuring()
    engine = setups[-1][3]
    setup_metric(result, fixture.meta, [sum(s[:3]) for s in setups])
    result.layers["index.load_mmap_ms"] = median(s[0] for s in setups) * 1e3
    result.layers["engine.warmup_s"] = median(s[2] for s in setups)

    measure_read_only(ctx, result, check, engine, queries, expect, batch, config.FROZEN_PASSES)

    if ctx.traced:
        layers = result.layers
        with Tracer() as tracer:
            p50_ms, rows = traced_queries(result, tracer, engine, queries)
            span_metrics(result, tracer, rows, ENGINE_STAGES, per=len(queries))
            counts = dict(tracer.counts)  # of the single queries; the batches below add their own
            large_s = timed(lambda: engine.match_batch(batch))[0]
            small_s = timed(lambda: engine.match_batch(batch[: sizes.small_batch]))[0]
            with probe(result, "engine.batch.value_evidence_s"):
                layers["engine.batch.value_evidence_s"] = timed(lambda: engine.batch_evidence(batch))[0]
        in_match = [m for m in (*QUERY_STAGES, *ENGINE_STAGES) if m != "io.encode_us"]
        layers["engine.residual_us"] = p50_ms * 1e3 - sum(layers.get(m, 0.0) for m in in_match)
        for count in ("tokens", "posting_ids", "candidates"):
            if "kernels.row_accumulate" in tracer.wrapped:  # where tracing.COUNTERS reads them
                layers[f"engine.{count}_per_query"] = counts[count] / len(queries)
            else:
                result.skipped_probes.append(f"engine.{count}_per_query: accumulate_row has moved")
        # Two-point intercept: the cost a batch pays whatever its size.
        per_query = (large_s - small_s) / (len(batch) - sizes.small_batch)
        layers["engine.batch1000_s"] = large_s
        layers["engine.batch100_s"] = small_s
        layers["engine.batch_fixed_s"] = small_s - sizes.small_batch * per_query
        # Warm cache: the same queries again, without clearing.
        layers["cache.hit_us"] = median(harness.timed_calls(engine.match, queries)[0]) * 1e3
        overhead = p50_ms / result.e2e["query_p50_ms"]
        finish_trace(ctx, result, tracer, overhead, fixture.meta["serving_generate_s"])
    return result.close(check)


# ----------------------------------------------------------------------
# serve_sharded
# ----------------------------------------------------------------------
def worker_rss_mb(router: Any) -> float:
    """Largest resident set among the router's worker processes."""
    best = 0.0
    for group in router._replicas:
        for replica in group:
            with open(f"/proc/{replica.proc.pid}/status", encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("VmRSS:"):
                        best = max(best, int(line.split()[1]) / 1024.0)
    return best


def serve_sharded(ctx: Context) -> Result:
    """``ShardRouter`` over two worker processes: the ``serve_frozen`` query
    plus encode, pipe, worker and merge."""
    from repro.serving import MatchEngine, ResolutionIndex
    from repro.sharding import ShardRouter

    result = Result("serve_sharded")
    check = harness.Checker()
    sizes = ctx.sizes
    fixture = fixtures.load_serving(ctx.corpus, sizes, ctx.seed)
    queries = fixture.queries[: sizes.sharded_queries]
    expect = fixture.expect[: sizes.sharded_queries]
    batch = fixture.queries[: sizes.sharded_batch]
    warm = fixture.queries[: sizes.warmup_queries]
    routers: list[Any] = []

    def set_up() -> tuple[float, float, float]:
        while routers:
            routers.pop().close()
        load_s, index = timed(lambda: ResolutionIndex.load(fixture.index_path, mmap=True))
        spawn_s, router = timed(lambda: ShardRouter.spawn(fixture.index_path, config.SHARDS, index=index))
        routers.append(router)
        warm_s = timed(lambda: [router.match(query) for query in warm])[0]
        return load_s, spawn_s, warm_s

    try:
        setups = timed_passes(set_up, ctx.passes(config.SETUP_PASSES))
        ctx.measuring()
        router = routers[0]
        setup_metric(result, fixture.meta, [sum(s) for s in setups], shards=True)
        result.layers["planner.split_s"] = median(fixture.meta["split_s"])
        result.layers["planner.shard_file_mb"] = fixture.meta["shard_file_mb"]
        result.layers["index.load_mmap_ms"] = median(s[0] for s in setups) * 1e3
        result.layers["router.spawn_s"] = median(s[1] for s in setups)
        result.layers["engine.warmup_s"] = median(s[2] for s in setups)

        oracle = MatchEngine(ResolutionIndex.load(fixture.index_path, mmap=True))
        measure_read_only(ctx, result, check, router, queries, expect, batch, config.SHARDED_PASSES, oracle)

        if ctx.traced:
            layers = result.layers
            with Tracer() as tracer:
                service, slowest = [], []

                def note_service() -> None:
                    reported = [ms for ms in (router.last_service_ms or ()) if ms is not None]
                    if reported:
                        service.append(sum(reported) / len(reported))
                        slowest.append(max(reported))

                p50_ms, rows = traced_queries(result, tracer, router, queries, note_service)
                layers["router.batch500_s"] = timed(lambda: router.match_batch(batch))[0]
            span_metrics(
                result, tracer, rows,
                {"merge.single_us": ("merge.single",), "router.local_us": ("engine.value_tokens", "rules.single")},
                per=len(queries), key="total_us",
            )
            span_metrics(
                result, tracer, rows, {"router.requests_per_query": ("protocol.encode",)},
                per=len(queries), key="calls",
            )
            layers["worker.service_ms"] = median(service) if service else 0.0
            layers["worker.slowest_service_ms"] = median(slowest) if slowest else 0.0
            with probe(result, "worker.rss_mb"):
                layers["worker.rss_mb"] = worker_rss_mb(router)
            with probe(result, "router.wire_floor_ms"):
                layers["router.wire_floor_ms"] = router.wire_floor_ms(config.WIRE_FLOOR_SAMPLES)
            with probe(result, "protocol.encode_us", "protocol.decode_us",
                       "protocol.request_bytes", "protocol.reply_bytes"):
                import io

                from repro.sharding import read_frame, write_frame

                # What the router does per shard and query: write one
                # request frame, read one reply frame.
                request = {"id": 1, "op": "match", "tokens": oracle.value_tokens(queries[0])}
                reply = {"id": 1, "ok": True, "service_ms": 0.1, **oracle.match_evidence(queries[0])}
                rounds = 200
                requests, replies = io.BytesIO(), io.BytesIO()
                took = timed(lambda: [write_frame(requests, request) for _ in range(rounds)])[0]
                layers["protocol.encode_us"] = took / rounds * 1e6
                layers["protocol.request_bytes"] = len(requests.getvalue()) / rounds
                for _ in range(rounds):
                    write_frame(replies, reply)
                layers["protocol.reply_bytes"] = len(replies.getvalue()) / rounds
                replies.seek(0)
                took = timed(lambda: [read_frame(replies) for _ in range(rounds)])[0]
                layers["protocol.decode_us"] = took / rounds * 1e6
            with probe(result, "router.failures", "router.hedge_fired"):
                stats = router.stats()["sharding"]
                layers["router.failures"] = stats["failures"]
                layers["router.hedge_fired"] = stats["hedge_fired"]
            overhead = p50_ms / result.e2e["query_p50_ms"]
            finish_trace(ctx, result, tracer, overhead, fixture.meta["serving_generate_s"])
    finally:
        while routers:
            routers.pop().close()
    return result.close(check)


# ----------------------------------------------------------------------
# serve_live
# ----------------------------------------------------------------------
@dataclass
class Stream:
    """One pass of the mixed stream on a fresh engine."""

    engine: Any
    setup_s: float
    cycles: list[list[float]]  # per cycle: ms of the RATIO queries, then of the edit
    wall_s: float
    keys: list[Any]  # decision keys of its queries
    outcomes: list[Any]  # what its edits returned

    @property
    def query_ms(self) -> list[float]:
        return [ms for cycle in self.cycles for ms in cycle[:-1]]


@dataclass
class Aftermath:
    """What followed the last stream pass, on its engine."""

    edit_ms: list[float] = field(default_factory=list)
    batch_s: list[float] = field(default_factory=list)  # timed repeats under the delta
    delta_ms: list[float] = field(default_factory=list)  # read-only, under the full delta
    compact_s: float = 0.0
    during_ms: list[float] = field(default_factory=list)  # queries answered while compacting
    delta_size: int = 0
    tombstones: int = 0
    ledger_bytes: int = 0  # before the compaction truncates it


LIVE_STAGES = {
    "live.upsert_us": ("live.upsert",),
    "live.delete_us": ("live.delete",),
    "ledger.append_us": ("ledger.append",),
}


def serve_live(ctx: Context) -> Result:
    """``LiveEngine`` + fsynced ledger: queries beside edits, then a
    compaction under load.

    A stream pass is a fresh copy of the index, a fresh engine (its set-up)
    and the mixed stream.  The last pass's engine then goes on: more edits
    until ``live_batch_edits`` are in, a batch under that delta, bulk edits
    to the full delta, read-only queries under it, ``compact()`` on a
    thread while the client keeps querying, and the same read-only queries
    afterwards.  No batch follows a compaction: that sequence is the repo's
    standing tier-1 counterexample.
    """
    from repro.serving import LiveEngine, MatchEngine, ResolutionIndex, UpsertLedger

    result = Result("serve_live")
    check = harness.Checker()
    sizes = ctx.sizes
    fixture = fixtures.load_serving(ctx.corpus, sizes, ctx.seed, edits=True)
    queries, expect = fixture.queries, fixture.expect
    warm = queries[: sizes.warmup_queries]
    batch = queries[: sizes.live_batch]
    verify = queries[: sizes.live_verify]
    ratio = config.QUERY_EDIT_RATIO
    cycles = sizes.live_stream_ops // (ratio + 1)
    live_path = ctx.workdir / "live.idx"
    ledger_path = ctx.workdir / "live.ledger"
    clock = time.perf_counter

    def set_up() -> tuple[float, Any]:
        shutil.copyfile(fixture.index_path, live_path)
        ledger_path.unlink(missing_ok=True)
        began = clock()
        engine = LiveEngine(ResolutionIndex.load(live_path, mmap=True))
        engine.index_path = live_path
        engine.attach_ledger(UpsertLedger(ledger_path))
        for query in warm:
            engine.match(query)
        return clock() - began, engine

    def apply(engine: Any, edit: tuple[str, Any]) -> Any:
        op, value = edit
        return engine.upsert(value) if op == "upsert" else engine.delete(value)

    def stream_pass(tracer: Tracer | None = None) -> Stream:
        """Only clocks and appends happen inside the loop; the oracle reads
        the collected decisions afterwards."""
        setup_s, engine = set_up()
        match, edit = safe(engine.match), safe(lambda e: apply(engine, e))
        decisions: list[Any] = []
        outcomes: list[Any] = []
        took: list[list[float]] = []
        engine.cache.clear()
        began = clock()
        for cycle in range(cycles):
            if tracer is not None:
                tracer.op = cycle
            ms = []
            for _ in range(ratio):
                t0 = clock()
                decisions.append(match(queries[len(decisions)]))
                ms.append((clock() - t0) * 1e3)
            t0 = clock()
            outcomes.append(edit(fixture.edits[cycle]))
            ms.append((clock() - t0) * 1e3)
            took.append(ms)
        wall_s = clock() - began
        keys = keys_of(check, "stream match", decisions, match.errors)
        return Stream(engine, setup_s, took, wall_s, keys, outcomes)

    def aftermath(stream: Stream) -> Aftermath:
        after = Aftermath()
        engine = stream.engine
        match, edit = safe(engine.match), safe(lambda e: apply(engine, e))
        outcomes = list(stream.outcomes)

        def bulk(edits: Sequence[Any]) -> None:
            for item in edits:
                t0 = clock()
                outcomes.append(edit(item))
                after.edit_ms.append((clock() - t0) * 1e3)

        bulk(fixture.edits[cycles : sizes.live_batch_edits])

        # Batch under that delta: repeats must agree.
        batch_keys = None
        match_batch = safe(engine.match_batch)

        def batch_pass() -> float:
            nonlocal batch_keys
            took, answers = timed(lambda: match_batch(batch))
            if answers is None:
                check.ran(len(batch))
                check.fail(f"match_batch under delta raised {match_batch.errors[:1]}", len(batch))
                return took
            keys = keys_of(check, "batch under delta", answers)
            batch_keys = batch_keys or keys
            check.same("batch under delta", keys, batch_keys)
            return took

        after.batch_s = timed_passes(batch_pass, ctx.passes(config.LIVE_BATCH_PASSES), warmup=ctx.untraced)

        bulk(fixture.edits[sizes.live_batch_edits :])
        check.ran(len(outcomes))
        for number, outcome in enumerate(outcomes):
            if outcome is None or outcome is False:
                check.fail(f"edit {number} ({fixture.edits[number][0]}) failed {edit.errors[:1]}")
        with probe(result, "live.delta_size", "live.tombstones"):
            live = engine.stats()["live"]
            after.delta_size, after.tombstones = live["delta_entities"], live["tombstones"]
        after.ledger_bytes = ledger_path.stat().st_size

        engine.cache.clear()
        after.delta_ms, under_delta = harness.timed_calls(match, verify)
        under_delta = keys_of(check, "match under delta", under_delta, match.errors)

        outcome: dict[str, Any] = {}

        def compact() -> None:
            try:
                outcome["s"] = timed(engine.compact)[0]
            except Exception as error:  # reported below as a failed operation
                outcome["error"] = repr(error)

        thread = threading.Thread(target=compact, name="perf-compact")
        thread.start()
        turn = 0
        while thread.is_alive():
            t0 = clock()
            decision = match(queries[turn % len(queries)])
            after.during_ms.append((clock() - t0) * 1e3)
            keys_of(check, "match during compact", [decision], match.errors)
            turn += 1
        thread.join()
        check.ran()
        if "error" in outcome:
            check.fail(f"compact raised {outcome['error']}")
        after.compact_s = outcome.get("s", float("nan"))

        engine.cache.clear()
        post = [match(query) for query in verify]
        check.same("after compaction", keys_of(check, "match after compact", post, match.errors), under_delta)
        cold = MatchEngine(ResolutionIndex.load(live_path, mmap=True))
        check.same("cold load of compacted file", keys_of(check, "cold match", [cold.match(q) for q in verify]), under_delta)

        # Ground truth moves with the edits: a deleted partner is no match.
        # Stream query q is asked after q // ratio edits, the read-only
        # queries after all of them.
        deleted: set[str] = set()
        truth = []
        for position, edit_item in enumerate(fixture.edits):
            if position < cycles:
                truth += [None if w in deleted else w for w in expect[position * ratio : (position + 1) * ratio]]
            op, value = edit_item
            if op == "delete":
                deleted.add(value)
            else:
                deleted.discard(value.uri)
        truth += [None if want in deleted else want for want in expect[: len(verify)]]
        result.e2e["f1_min"] = served_f1(check, stream.keys + under_delta, truth)
        result.digests.setdefault("stream", harness.digest(stream.keys))
        result.digests.setdefault("under_delta", harness.digest(under_delta))
        return after

    ctx.measuring()
    streams = timed_passes(stream_pass, ctx.passes(config.LIVE_STREAM_PASSES), ctx.deadline, warmup=ctx.untraced)
    for stream in streams:
        check.same("stream", stream.keys, streams[0].keys)
    setup_metric(result, fixture.meta, [stream.setup_s for stream in streams])
    record_queries(result, [stream.query_ms for stream in streams], [stream.wall_s for stream in streams])
    after = aftermath(streams[-1])
    edits = [cycle[-1] for cycle in streams[-1].cycles] + after.edit_ms
    result.timing("edit_p50_ms", [median(edits[i : i + 500]) for i in range(0, len(edits), 500)])
    result.samples["edits"] = len(edits)
    result.timing("batch_qps", [len(batch) / took for took in after.batch_s])
    result.timing("compact_s", [after.compact_s])
    result.timing("compact_stall_ms", [max(after.during_ms, default=0.0)])
    result.mark_rss()

    if ctx.traced:
        layers = result.layers
        with Tracer() as tracer:
            start = tracer.mark()
            traced = stream_pass(tracer)
            after = aftermath(traced)
            rows = tracer.by_name(start, tracer.mark())
        span_metrics(result, tracer, rows, LIVE_STAGES, per=None, key="total_us")
        span_metrics(
            result, tracer, rows, {"live.compact_build_s": ("live.compact_build",)},
            per=1.0, key="total_us", scale=1e-6,
        )
        if "live.compact_build_s" in layers:
            layers["live.compact_swap_s"] = after.compact_s - layers["live.compact_build_s"]
        layers["ledger.bytes_per_edit"] = after.ledger_bytes / len(fixture.edits)
        layers["live.compact_file_mb"] = live_path.stat().st_size / 2**20
        layers["live.queries_during_compact"] = len(after.during_ms)
        layers["live.query_after_edit_ms"] = median(cycle[0] for cycle in traced.cycles[1:])
        layers["live.query_no_edit_ms"] = median(ms for cycle in traced.cycles for ms in cycle[1:-1])
        layers["live.delta5k_p50_ms"] = median(after.delta_ms)
        layers["live.delta_size"] = after.delta_size
        layers["live.tombstones"] = after.tombstones
        live_probes(result, fixture, set_up, apply, sizes.live_batch_edits, warm)
        overhead = median(traced.query_ms) / result.e2e["query_p50_ms"]
        finish_trace(ctx, result, tracer, overhead, fixture.meta["serving_generate_s"])
    return result.close(check)


def live_probes(
    result: Result,
    fixture: fixtures.ServingFixture,
    set_up: Callable[[], tuple[float, Any]],
    apply: Callable[[Any, Any], Any],
    stream_edits: int,
    sample: Sequence[Any],
) -> None:
    """Per-layer numbers of the live path that no span shows: the cost of
    the gate, of admission, and of re-merging posting lists after an edit."""
    from repro import MinoanERConfig
    from repro.serving import MatchEngine, ResolutionIndex

    layers = result.layers
    engine = set_up()[1]
    plain = MatchEngine(ResolutionIndex.load(fixture.index_path, mmap=True))
    for query in sample:
        plain.match(query)

    def p50(target: Any) -> float:
        target.cache.clear()
        return median(harness.timed_calls(target.match, sample)[0])

    # Delta 0: LiveEngine against MatchEngine on the same queries, interleaved.
    live_ms, plain_ms = [], []
    for _ in range(3):
        live_ms.append(p50(engine))
        plain_ms.append(p50(plain))
    layers["live.delta0_p50_ms"] = median(live_ms)
    layers["live.gate_overhead_us"] = (median(live_ms) - median(plain_ms)) * 1e3

    with probe(result, "live.handle_pin_us"):
        pin = engine.handle.pin
        rounds = 2000

        def pins() -> None:
            for _ in range(rounds):
                with pin():
                    pass

        layers["live.handle_pin_us"] = timed(pins)[0] / rounds * 1e6

    with probe(result, "admission.admit_us", "admission.on_p50_ms"):
        from repro.resilience.admission import AdmissionController

        controller = AdmissionController(max_pending=1024)
        rounds = 2000

        def admits() -> None:
            for _ in range(rounds):
                with controller.admit(cost=1):
                    pass

        layers["admission.admit_us"] = timed(admits)[0] / rounds * 1e6
        guarded = MatchEngine(plain.index, config=MinoanERConfig(serving_max_pending=1024))
        for query in sample:
            guarded.match(query)
        layers["admission.on_p50_ms"] = p50(guarded)

    # Read-only under the stream's delta, and the posting re-merge an edit forces.
    for edit in fixture.edits[:stream_edits]:
        apply(engine, edit)
    layers["live.readonly_delta_p50_ms"] = p50(engine)
    with probe(result, "live.posting_merge_us", "live.posting_merge_ids"):
        tokenizer = engine.index.tokenizer
        frequency: dict[str, int] = {}
        for query in sample:
            for token in tokenizer.token_set([value for _, value in query.pairs]):
                frequency[token] = frequency.get(token, 0) + 1
        postings = engine.index.postings
        hot = [t for t in sorted(frequency, key=lambda t: (-frequency[t], t)) if t in postings]
        hot = hot[: config.HOT_TOKENS]
        apply(engine, fixture.edits[stream_edits])  # epoch bump: memoised merges are gone
        took, lists = timed(lambda: [postings[token] for token in hot])
        layers["live.posting_merge_us"] = took / len(hot) * 1e6
        layers["live.posting_merge_ids"] = sum(len(ids) for ids in lists) / len(hot)


WORKLOADS: dict[str, Callable[[Context], Result]] = {
    "offline": offline,
    "serve_frozen": serve_frozen,
    "serve_live": serve_live,
    "serve_sharded": serve_sharded,
}
