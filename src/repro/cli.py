"""Command-line interface: resolve, dedupe, generate, experiment, index, serve.

Usage::

    python -m repro resolve kb1.nt kb2.nt -o matches.tsv
    python -m repro dedupe kb.nt -o duplicates.tsv
    python -m repro generate restaurant --out-dir data/ --scale 0.5
    python -m repro experiment table3 --profiles restaurant bbc_dbpedia
    python -m repro index kb2.nt -o kb2.idx
    python -m repro index --migrate old.idx
    python -m repro index kb2.nt -o kb2.idx --shards 3
    python -m repro serve kb2.idx < queries.jsonl > answers.jsonl
    python -m repro serve kb2.idx --shards 3 --replicas 2 < q.jsonl

``resolve``, ``dedupe`` and ``index`` accept N-Triples (``.nt``) or
``subject<TAB>predicate<TAB>object`` TSV files.  ``generate``
materialises a synthetic benchmark profile to disk; ``experiment``
regenerates one of the paper's tables or figures and prints it.
``index`` freezes a target KB into a query-time resolution index
(``--migrate`` rewrites an existing index file in the current columnar
format), and ``serve`` answers JSONL queries
against it, served off the memory-mapped file (see ``docs/serving.md``
for the wire and on-disk formats).

``resolve``, ``index`` and ``serve`` accept ``--trace FILE``
(``--trace-format json|logfmt``): one :class:`repro.obs.Recorder` is
installed for the whole command and its spans/counters/histograms --
pipeline phases, parallel stages (including worker-side spans merged
across process boundaries), kernel dispatches, serving latency and
cache metrics -- are exported to ``FILE`` when the command ends; the
path ``-`` writes the trace to stderr (see ``docs/observability.md``).
``serve`` additionally accepts ``--metrics-port PORT`` (a live
Prometheus text-format endpoint on ``/metrics``) and
``--provenance [RATE]`` (sampled per-decision audit records on the
wire).

The same three commands accept ``--chaos SPEC`` (``--chaos-seed N``):
a deterministic fault-injection plan (see
:func:`repro.resilience.faults.parse_chaos` and
``docs/resilience.md``) installed for the whole command, e.g.
``--chaos 'stage:*=error*2'``.  ``resolve`` pairs it with
``--failure-mode retry|degrade`` (plus ``--retry-attempts``) and can
run the stage-parallel pipeline (``--stages thread|process``,
``--workers N``); ``serve`` pairs it with ``--deadline-ms`` and emits
per-line JSONL error records instead of aborting the stream.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Sequence

from repro.core.config import MinoanERConfig
from repro.core.dirty import DirtyMinoanER
from repro.core.pipeline import MinoanER
from repro.datasets.profiles import load_profile, profile_names, scaled_profile
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.rdf import load_ground_truth_tsv, load_ntriples, load_tsv, save_ntriples

EXPERIMENTS = (
    "table1",
    "table2",
    "table3",
    "table4",
    "figure2",
    "figure5",
    "figure6",
)


def _load_kb(path: str, name: str) -> KnowledgeBase:
    if path.endswith((".tsv", ".txt")):
        return load_tsv(path, name=name)
    return load_ntriples(path, name=name)


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    defaults = MinoanERConfig()
    parser.add_argument(
        "--name-attributes", type=int, default=defaults.name_attributes_k,
        metavar="K", help="global name attributes per KB (paper's k, default %(default)s)",
    )
    parser.add_argument(
        "--candidates", type=int, default=defaults.candidates_k,
        metavar="K", help="candidates kept per node per evidence (paper's K, default %(default)s)",
    )
    parser.add_argument(
        "--relations", type=int, default=defaults.relations_n,
        metavar="N", help="important relations per entity (paper's N, default %(default)s)",
    )
    parser.add_argument(
        "--theta", type=float, default=defaults.theta,
        help="value-vs-neighbor ranking trade-off in R3 (default %(default)s)",
    )
    parser.add_argument(
        "--no-reciprocity", action="store_true", help="disable rule R4"
    )
    parser.add_argument(
        "--no-neighbors", action="store_true", help="disable neighbor evidence in R3"
    )


def _add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.obs.export import TRACE_FORMATS

    parser.add_argument(
        "--trace", metavar="FILE",
        help="record an observability trace (spans + metrics) and write it here",
    )
    parser.add_argument(
        "--trace-format", choices=TRACE_FORMATS, default="json",
        help="trace file format (default %(default)s)",
    )


def _add_chaos_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--chaos", metavar="SPEC",
        help="deterministic fault-injection plan, e.g. 'stage:*=error*2,"
        "serve:match=delay:0.05' (see docs/resilience.md)",
    )
    parser.add_argument(
        "--chaos-seed", type=int, default=0, metavar="N",
        help="seed of the chaos plan's probability draws (default %(default)s)",
    )


def _add_resilience_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.parallel.context import BACKENDS
    from repro.resilience.policy import FAILURE_MODES

    defaults = MinoanERConfig()
    parser.add_argument(
        "--failure-mode", choices=FAILURE_MODES, default=defaults.failure_mode,
        help="on stage failure: abort, retry, or retry-then-skip "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--retry-attempts", type=int, default=defaults.retry_max_attempts,
        metavar="N", help="total attempts per failed unit of work "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--stages", choices=BACKENDS, default="serial",
        help="run the stage-parallel pipeline on this backend "
        "(default: the serial pipeline)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker pool size of the stage-parallel pipeline "
        "(default %(default)s)",
    )


def _config_options(args: argparse.Namespace) -> dict[str, Any]:
    """The :class:`MinoanERConfig` fields this command's flags set.

    The one place where flags become a config.  It raises
    ``ValueError`` for an out-of-range value -- of a config field, or
    of a flag the command reads itself -- before any file is read, and
    :func:`main` reports that as a usage error.
    """
    if args.command == "serve":
        options: dict[str, Any] = dict(
            serving_cache_size=args.cache_size,
            serving_deadline_ms=args.deadline_ms,
            failure_mode=args.failure_mode,
            serving_max_pending=args.max_pending,
            serving_quota_qps=args.quota_qps,
        )
        if args.provenance is not None:
            options["provenance_sample_rate"] = args.provenance
        delta, tombstones = args.auto_compact_delta, args.auto_compact_tombstones
        checks = [
            (args.batch_size >= 1, f"--batch-size must be >= 1, got {args.batch_size}"),
            (args.shards >= 0, f"--shards must be >= 0, got {args.shards}"),
            (args.replicas >= 1, f"--replicas must be >= 1, got {args.replicas}"),
            (
                delta is None or delta >= 1,
                f"--auto-compact-delta must be >= 1, got {delta}",
            ),
            (
                tombstones is None or 0.0 < tombstones <= 1.0,
                f"--auto-compact-tombstones must be in (0, 1], got {tombstones}",
            ),
        ]
    elif args.command in ("resolve", "dedupe", "index"):
        options = dict(
            name_attributes_k=args.name_attributes,
            candidates_k=args.candidates,
            relations_n=args.relations,
            theta=args.theta,
            use_reciprocity=not args.no_reciprocity,
            use_neighbor_evidence=not args.no_neighbors,
        )
        checks = []
        if args.command == "index":
            # Each of these would otherwise be dropped without a word:
            # --migrate returns before --shards is read, and --ledger is
            # only folded in by --compact.
            checks += [
                (
                    not (args.migrate and args.shards),
                    "--shards cannot be combined with --migrate",
                ),
                (
                    not (args.migrate and args.compact),
                    "--compact cannot be combined with --migrate",
                ),
                (args.ledger is None or args.compact, "--ledger requires --compact"),
            ]
        if args.command == "resolve":
            options.update(
                failure_mode=args.failure_mode,
                retry_max_attempts=args.retry_attempts,
            )
            checks.append(
                (args.workers >= 1, f"--workers must be >= 1, got {args.workers}")
            )
    else:
        return {}
    for ok, message in checks:
        if not ok:
            raise ValueError(message)
    MinoanERConfig(**options)
    return options


def _config_from(args: argparse.Namespace) -> MinoanERConfig:
    return MinoanERConfig(**args.config_options)


def _write_pairs(pairs: Sequence[tuple[str, str]], destination: str | None) -> None:
    lines = [f"{uri1}\t{uri2}" for uri1, uri2 in sorted(pairs)]
    if destination:
        Path(destination).write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        for line in lines:
            print(line)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def command_resolve(args: argparse.Namespace) -> int:
    kb1 = _load_kb(args.kb1, "KB1")
    kb2 = _load_kb(args.kb2, "KB2")
    config = _config_from(args)
    if args.stages == "serial" and args.workers == 1:
        result = MinoanER(config).resolve(kb1, kb2)
    else:
        from repro.parallel.context import ParallelContext
        from repro.parallel.pipeline import ParallelMinoanER

        with ParallelContext(
            num_workers=args.workers,
            backend=args.stages,
            failure_mode=config.failure_mode,
            retry_policy=MinoanER(config).phase_retry_policy(),
        ) as context:
            result = ParallelMinoanER(config, context).resolve(kb1, kb2)
    _write_pairs(sorted(result.uri_matches()), args.output)
    print(
        f"# {len(result.matches)} matches from |E1|={len(kb1)}, |E2|={len(kb2)} "
        f"in {result.timings['total']:.2f}s",
        file=sys.stderr,
    )
    if result.is_degraded:
        holes = "; ".join(
            f"{stage} partitions {list(parts)}"
            for stage, parts in sorted(result.degraded.items())
        )
        print(f"# DEGRADED: partial result, skipped {holes}", file=sys.stderr)
    if args.ground_truth:
        gold = load_ground_truth_tsv(args.ground_truth)
        report = result.evaluate_uris(gold)
        print(f"# quality vs {args.ground_truth}: {report}", file=sys.stderr)
    return 0


def command_dedupe(args: argparse.Namespace) -> int:
    kb = _load_kb(args.kb, "KB")
    result = DirtyMinoanER(_config_from(args)).resolve(kb)
    _write_pairs(sorted(result.uri_matches()), args.output)
    print(
        f"# {len(result.matches)} duplicate pairs in {len(result.clusters)} clusters "
        f"among {len(kb)} entities",
        file=sys.stderr,
    )
    return 0


def command_generate(args: argparse.Namespace) -> int:
    if args.scale == 1.0:
        pair = load_profile(args.profile, seed=args.seed)
    else:
        pair = scaled_profile(args.profile, args.scale, seed=args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_ntriples(pair.kb1, out / "kb1.nt")
    save_ntriples(pair.kb2, out / "kb2.nt")
    with (out / "ground_truth.tsv").open("w", encoding="utf-8") as handle:
        for uri1, uri2 in sorted(pair.uri_ground_truth):
            handle.write(f"{uri1}\t{uri2}\n")
    print(
        f"wrote {out}/kb1.nt ({len(pair.kb1)} entities), "
        f"{out}/kb2.nt ({len(pair.kb2)} entities), "
        f"{out}/ground_truth.tsv ({len(pair.ground_truth)} matches)"
    )
    return 0


def command_experiment(args: argparse.Namespace) -> int:
    from repro.evaluation import experiments, reporting

    pairs = [load_profile(name) for name in args.profiles]
    if args.experiment == "table1":
        print(reporting.format_dataset_statistics(
            [experiments.dataset_statistics(pair) for pair in pairs]))
    elif args.experiment == "table2":
        print(reporting.format_block_statistics(
            [experiments.block_statistics(pair) for pair in pairs]))
    elif args.experiment == "table3":
        print(reporting.format_comparison(
            [experiments.comparison(pair) for pair in pairs]))
    elif args.experiment == "table4":
        print(reporting.format_rule_ablation(
            [experiments.rule_ablation(pair) for pair in pairs]))
    elif args.experiment == "figure2":
        print(reporting.format_similarity_distribution(
            [experiments.similarity_distribution(pair, sample=300) for pair in pairs]))
    elif args.experiment == "figure5":
        results = [
            experiments.sensitivity(pair, parameter)
            for parameter in experiments.SENSITIVITY_GRID
            for pair in pairs
        ]
        print(reporting.format_sensitivity(results))
    elif args.experiment == "figure6":
        print(reporting.format_scalability(
            [experiments.scalability(pair) for pair in pairs]))
    return 0


def _load_index(path: str):
    """``ResolutionIndex.load(path)``; a missing or unreadable file is
    one ``error:`` line and exit status 2, like a bad flag."""
    from repro.serving import ResolutionIndex

    try:
        return ResolutionIndex.load(path)
    except (OSError, ValueError) as error:
        print(f"repro: error: cannot load index {path}: {error}", file=sys.stderr)
        raise SystemExit(2) from None


def command_index(args: argparse.Namespace) -> int:
    from repro.serving import ResolutionIndex
    from repro.serving.format import MAGIC
    from repro.serving.index import FORMAT_VERSION

    if args.migrate:
        source = args.kb
        destination = args.output or source
        index = _load_index(source)
        loaded_version = index.load_info["format_version"]
        index.save(destination)
        print(
            f"# migrated {source} (format v{loaded_version}) -> "
            f"{destination} (format v{FORMAT_VERSION})",
            file=sys.stderr,
        )
        return 0
    if args.compact:
        from repro.serving.live import LiveIndex, UpsertLedger

        source = args.kb
        destination = Path(args.output or source)
        live = LiveIndex(_load_index(source))
        events = 0
        if args.ledger:
            for op, value in UpsertLedger(args.ledger).replay():
                live.apply(op, value)
                events += 1
        index = live.compact()
        # save() renames over the destination: a serving process mapping
        # the old file keeps its pages until it reloads.
        index.save(destination)
        print(
            f"# compacted {source} + {events} ledger event(s) -> "
            f"{destination}",
            file=sys.stderr,
        )
        args.output = str(destination)
    elif not args.output:
        print(
            "error: -o/--output is required unless --migrate or --compact",
            file=sys.stderr,
        )
        return 2
    else:
        # The input may be a KB to freeze, or an already-built index
        # file to (re-)shard: sniff the container magic rather than
        # guessing from the extension.
        with open(args.kb, "rb") as handle:
            is_index = handle.read(len(MAGIC)) == MAGIC
        if is_index:
            index = _load_index(args.kb)
            if args.kb != args.output:
                index.save(args.output)
        else:
            kb2 = _load_kb(args.kb, "KB2")
            index = ResolutionIndex.build(kb2, _config_from(args))
            index.save(args.output)
    summary = index.describe()
    print(
        f"# indexed {summary['entities']} entities "
        f"({summary['tokens']} tokens, {summary['names']} names) -> {args.output}",
        file=sys.stderr,
    )
    if args.shards:
        from repro.sharding import ShardPlanner

        paths = ShardPlanner(args.shards).write(index, args.output)
        sizes = sum(path.stat().st_size for path in paths)
        print(
            f"# sharded into {len(paths)} files "
            f"({paths[0].name} .. {paths[-1].name}, {sizes} bytes total)",
            file=sys.stderr,
        )
    return 0


def command_serve(args: argparse.Namespace) -> int:
    import json

    from repro.resilience.admission import LoadShedError
    from repro.serving import MatchEngine, RequestError
    from repro.serving.io import ControlRequest, iter_requests, write_decisions
    from repro.serving.live import LedgerError, LiveEngine, UpsertLedger

    index = _load_index(args.index)
    load_info = index.load_info or {}
    config = index.config.with_options(**args.config_options)

    def emit_error(
        message: str,
        *,
        line: int | None = None,
        query: str | None = None,
        shard: int | None = None,
        shed: str | None = None,
        ledger: str | None = None,
    ) -> None:
        record: dict = {"error": message}
        if shed is not None:
            record["shed"] = True
            record["reason"] = shed
        if ledger is not None:
            record["ledger"] = ledger
        if line is not None:
            record["line"] = line
        if query is not None:
            record["query"] = query
        if shard is not None:
            record["shard"] = shard
        sys.stdout.write(json.dumps(record) + "\n")
        sys.stdout.flush()

    if args.shards:
        from repro.sharding import LiveShardRouter

        engine: MatchEngine = LiveShardRouter.spawn(
            args.index,
            args.shards,
            replicas=args.replicas,
            config=config,
            on_shard_error=lambda shard, error: emit_error(str(error), shard=shard),
            index=index,
            supervise=args.supervise,
        )
    else:
        engine = LiveEngine(index, config)
        if args.supervise:
            print(
                "# --supervise has no effect without --shards (nothing to "
                "supervise in-process)",
                file=sys.stderr,
            )
    # Control records (in-band upserts/compaction/swaps) default their
    # file operations to the index the server was started on.
    engine.index_path = Path(args.index)
    if args.ledger:
        try:
            replayed = engine.attach_ledger(
                UpsertLedger(args.ledger), recover=args.ledger_recover
            )
        except (LedgerError, OSError) as error:
            # One structured record, a clean shutdown and a nonzero exit:
            # a corrupt or unreadable ledger must never half-start a
            # server (or spray a traceback a driver cannot parse).
            engine.recorder.count("serving.ledger_errors")
            emit_error(f"ledger unusable: {error}", ledger=str(args.ledger))
            close = getattr(engine, "close", None)
            if close is not None:
                close()
            return 1
        if replayed:
            print(
                f"# ledger {args.ledger}: replayed {replayed} event(s), "
                f"generation {engine.generation}",
                file=sys.stderr,
            )
        recovered = engine.ledger.recovered if engine.ledger is not None else None
        if recovered:
            print(
                f"# ledger {args.ledger}: truncated torn tail at line "
                f"{recovered['line']} ({recovered['dropped_bytes']} byte(s); "
                f"{recovered['reason']})",
                file=sys.stderr,
            )
    compactor = None
    if args.auto_compact_delta is not None or args.auto_compact_tombstones is not None:
        from repro.serving.compaction import CompactionScheduler

        compactor = CompactionScheduler(
            engine,
            max_delta=args.auto_compact_delta,
            max_tombstone_ratio=args.auto_compact_tombstones,
        ).start()
    # index.load may have run before the engine's recorder existed (it
    # records on the ambient recorder); re-surface how the index entered
    # memory as index.* gauges on the recorder the /metrics endpoint and
    # --stats actually read.
    for key, value in load_info.items():
        engine.recorder.gauge(f"index.{key}", int(value))
    metrics_server = None
    if args.metrics_port is not None:
        from repro.obs.prometheus import MetricsServer

        # The engine's recorder is always a real Recorder (ambient when
        # --trace installed one, private otherwise), so the endpoint has
        # live serving.* metrics either way.
        metrics_server = MetricsServer(engine.recorder, port=args.metrics_port)
    # The provenance line prints after the metrics server binds, so
    # --metrics-port 0 reports the actually-bound ephemeral port.
    provenance = (
        f"format v{load_info.get('format_version')}, "
        f"{load_info.get('file_bytes')} bytes, memory-mapped"
    )
    if args.shards:
        provenance += f", {args.shards} shards x {args.replicas} replicas"
    if metrics_server is not None:
        provenance += f", metrics port {metrics_server.port}"
    print(f"# index {args.index}: {provenance}", file=sys.stderr)
    if metrics_server is not None:
        print(
            f"# metrics at http://{metrics_server.host}:{metrics_server.port}/metrics",
            file=sys.stderr,
        )

    def answer_batch(batch: list) -> None:
        # Batched queries are admitted as one request of cost len(batch)
        # under the default source: per-source quotas are exact only at
        # --batch-size 1, where each query carries its own envelope.
        entities = [request.entity for request in batch]
        try:
            decisions = engine.match_batch(entities)
        except LoadShedError as error:
            engine.recorder.count("serving.shed", len(batch))
            for request in batch:
                emit_error(
                    str(error),
                    query=request.entity.uri,
                    line=request.line,
                    shed=error.reason,
                )
            return
        except Exception as error:
            engine.recorder.count("serving.query_errors", len(batch))
            for request in batch:
                emit_error(str(error), query=request.entity.uri)
            return
        write_decisions(decisions, sys.stdout)

    def handle_control(item: ControlRequest) -> None:
        """Apply one in-band control record and acknowledge it in-line.

        Acks are JSONL like every other response, carrying the op, its
        outcome and the index generation it produced, so a driver can
        assert 'everything after this line reflects the edit'.
        """
        ack: dict = {"control": item.op}
        try:
            if item.op == "upsert":
                engine.upsert(item.entity)
                ack["uri"] = item.entity.uri
            elif item.op == "delete":
                ack["uri"] = item.uri
                ack["removed"] = engine.delete(item.uri)
            elif item.op == "compact":
                fresh = engine.compact(item.path)
                ack["entities"] = fresh.n2
            else:  # reload
                engine.reload(item.path)
        except Exception as error:
            engine.recorder.count("serving.control_errors")
            emit_error(str(error), line=item.line)
            return
        ack["ok"] = True
        ack["generation"] = engine.generation
        sys.stdout.write(json.dumps(ack) + "\n")
        sys.stdout.flush()

    stream = open(args.input, "r", encoding="utf-8") if args.input else sys.stdin
    try:
        # One bad line (or one failing query) gets one JSONL error
        # record; the stream keeps going.
        batch: list = []
        for item in iter_requests(stream, recorder=engine.recorder, envelopes=True):
            if isinstance(item, RequestError):
                emit_error(item.error, line=item.line)
                continue
            if isinstance(item, ControlRequest):
                # Queries already read precede the edit in stream order;
                # answer them against the pre-edit index first.
                if batch:
                    answer_batch(batch)
                    batch = []
                handle_control(item)
                continue
            if args.batch_size == 1:
                try:
                    decision = engine.match(item.entity, source=item.source)
                except LoadShedError as error:
                    engine.recorder.count("serving.shed")
                    emit_error(
                        str(error),
                        query=item.entity.uri,
                        line=item.line,
                        shed=error.reason,
                    )
                    continue
                except Exception as error:
                    engine.recorder.count("serving.query_errors")
                    emit_error(str(error), query=item.entity.uri)
                    continue
                write_decisions([decision], sys.stdout)
            else:
                batch.append(item)
                if len(batch) >= args.batch_size:
                    answer_batch(batch)
                    batch = []
        if batch:
            answer_batch(batch)
    finally:
        if stream is not sys.stdin:
            stream.close()
        # Scheduler first: a compaction racing engine shutdown would
        # fold into a closing index.
        if compactor is not None:
            compactor.close()
        close = getattr(engine, "close", None)
        if close is not None:
            close()
        if metrics_server is not None:
            metrics_server.close()
    if args.stats:
        print(f"# {json.dumps(engine.stats())}", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MinoanER: schema-agnostic, non-iterative Web-entity resolution",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    resolve = subparsers.add_parser(
        "resolve", help="match two clean KBs (N-Triples or TSV files)"
    )
    resolve.add_argument("kb1")
    resolve.add_argument("kb2")
    resolve.add_argument("-o", "--output", help="write matches TSV here (default stdout)")
    resolve.add_argument("--ground-truth", help="URI-pair TSV to score against")
    _add_config_arguments(resolve)
    _add_resilience_arguments(resolve)
    _add_trace_arguments(resolve)
    _add_chaos_arguments(resolve)
    resolve.set_defaults(handler=command_resolve)

    dedupe = subparsers.add_parser("dedupe", help="deduplicate a single dirty KB")
    dedupe.add_argument("kb")
    dedupe.add_argument("-o", "--output", help="write duplicate pairs TSV here")
    _add_config_arguments(dedupe)
    dedupe.set_defaults(handler=command_dedupe)

    generate = subparsers.add_parser(
        "generate", help="materialise a synthetic benchmark profile"
    )
    generate.add_argument("profile", choices=profile_names())
    generate.add_argument("--out-dir", default=".", help="destination directory")
    generate.add_argument("--scale", type=float, default=1.0, help="population scale factor")
    generate.add_argument("--seed", type=int, default=None, help="override the calibrated seed")
    generate.set_defaults(handler=command_generate)

    experiment = subparsers.add_parser(
        "experiment", help="regenerate one of the paper's tables/figures"
    )
    experiment.add_argument("experiment", choices=EXPERIMENTS)
    experiment.add_argument(
        "--profiles", nargs="+", default=profile_names(), choices=profile_names(),
        help="datasets to include (default: all four)",
    )
    experiment.set_defaults(handler=command_experiment)

    index = subparsers.add_parser(
        "index", help="freeze a target KB into a query-time resolution index"
    )
    index.add_argument(
        "kb", help="target KB file (N-Triples or TSV); with --migrate, an "
        "existing index file",
    )
    index.add_argument(
        "-o", "--output", help="index file to write (required unless "
        "--migrate, which defaults to rewriting in place)",
    )
    index.add_argument(
        "--migrate", action="store_true",
        help="rewrite an existing index file in the current columnar "
        "format instead of building from a KB",
    )
    index.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="additionally split the index into N per-shard files "
        "(OUTPUT.shardI-of-N) for the sharded serving tier; each is a "
        "fully valid index the stock engine loads unchanged "
        "(see docs/sharding.md)",
    )
    index.add_argument(
        "--compact", action="store_true",
        help="fold a live-serving upsert ledger into an existing index "
        "file (KB names the index; default: rewrite in place via atomic "
        "rename) -- see docs/live_index.md",
    )
    index.add_argument(
        "--ledger", metavar="FILE", default=None,
        help="with --compact: the JSONL upsert/delete ledger to fold in "
        "(default: none, a plain deterministic rewrite)",
    )
    _add_config_arguments(index)
    _add_trace_arguments(index)
    _add_chaos_arguments(index)
    index.set_defaults(handler=command_index)

    serving_defaults = MinoanERConfig()
    serve = subparsers.add_parser(
        "serve", help="answer JSONL queries against a resolution index"
    )
    serve.add_argument("index", help="index file written by 'repro index'")
    serve.add_argument(
        "-i", "--input", help="JSONL request file (default: stdin)"
    )
    serve.add_argument(
        "--batch-size", type=int, default=1,
        help="queries resolved together; >1 lets related queries share "
        "context (default %(default)s)",
    )
    serve.add_argument(
        "--cache-size", type=int, default=serving_defaults.serving_cache_size,
        help="LRU result-cache capacity, 0 disables (default %(default)s)",
    )
    serve.add_argument(
        "--deadline-ms", type=float, default=serving_defaults.serving_deadline_ms,
        metavar="MS", help="per-lookup time budget; on expiry the query gets a "
        "degraded name-evidence-only answer (default: no deadline)",
    )
    serve.add_argument(
        "--stats", action="store_true",
        help="print engine counters as JSON to stderr when done",
    )
    serve.add_argument(
        "--provenance", type=float, nargs="?", const=1.0, default=None,
        metavar="RATE", help="attach per-decision provenance records to this "
        "fraction of responses (bare flag: every response; default: the "
        "index config's rate, normally off)",
    )
    from repro.resilience.policy import FAILURE_MODES

    serve.add_argument(
        "--shards", type=int, default=0,
        metavar="N", help="serve through N shard worker processes over the "
        "files written by 'repro index --shards N' (bit-identical to "
        "unsharded serving; default: single-process)",
    )
    serve.add_argument(
        "--replicas", type=int, default=1,
        metavar="R", help="worker replicas per shard; >1 enables hedged "
        "requests after the shard's p95 latency (default %(default)s)",
    )
    serve.add_argument(
        "--failure-mode", choices=FAILURE_MODES, default=serving_defaults.failure_mode,
        help="when a whole shard is unreachable: abort the query, retry "
        "the scatter, or degrade to the surviving shards' evidence "
        "(default %(default)s)",
    )
    serve.add_argument(
        "--supervise", action="store_true",
        help="with --shards: run a replica supervisor that restarts "
        "crashed shard workers with seeded exponential backoff and "
        "replays them to the live generation before readmitting them "
        "to the rotation (see docs/resilience.md)",
    )
    serve.add_argument(
        "--max-pending", type=int, default=None, metavar="N",
        help="admission control: shed queries (one explicit JSONL "
        "record each, never a silent drop) while N request costs are "
        "already in flight (default: unbounded)",
    )
    serve.add_argument(
        "--quota-qps", type=float, default=None, metavar="QPS",
        help="per-source token-bucket quota; requests carrying a "
        "'source' field are shed once that source exceeds QPS "
        "sustained, with a burst of 2x the rate (default: no quotas)",
    )
    serve.add_argument(
        "--ledger", metavar="FILE", default=None,
        help="durable JSONL upsert/delete ledger: replayed over the "
        "index at startup, appended on every in-band control mutation, "
        "truncated by compaction (see docs/live_index.md)",
    )
    serve.add_argument(
        "--ledger-recover", action=argparse.BooleanOptionalAction, default=True,
        help="truncate a torn final ledger record (a crashed writer's "
        "partial append) behind an fsync'd audit marker and keep "
        "serving; --no-ledger-recover makes any damage fatal "
        "(default: recover)",
    )
    serve.add_argument(
        "--auto-compact-delta", type=int, default=None, metavar="N",
        help="background-compact once the delta overlay holds N edits "
        "(default: manual compaction only)",
    )
    serve.add_argument(
        "--auto-compact-tombstones", type=float, default=None, metavar="R",
        help="background-compact once deleted entities exceed fraction "
        "R of the id space (default: manual compaction only)",
    )
    serve.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve Prometheus text-format metrics on "
        "http://127.0.0.1:PORT/metrics for the lifetime of the command "
        "(0 picks a free port; default: no endpoint)",
    )
    _add_trace_arguments(serve)
    _add_chaos_arguments(serve)
    serve.set_defaults(handler=command_serve)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.config_options = _config_options(args)
    except ValueError as error:
        parser.error(str(error))
    trace_path = getattr(args, "trace", None)
    chaos_spec = getattr(args, "chaos", None)
    if not trace_path and not chaos_spec:
        return args.handler(args)

    from contextlib import ExitStack

    recorder = None
    plan = None
    with ExitStack() as stack:
        if trace_path:
            # Installed before the chaos plan so every fired fault is
            # counted (faults.injected.<site>) in the exported trace.
            from repro.obs import Recorder, use_recorder

            recorder = Recorder()
            stack.enter_context(use_recorder(recorder))
        if chaos_spec:
            from repro.resilience import parse_chaos, use_faults

            plan = parse_chaos(chaos_spec, seed=args.chaos_seed)
            stack.enter_context(use_faults(plan))
        code = args.handler(args)
    if plan is not None:
        fired = ", ".join(
            f"{site}x{count}" for site, count in sorted(plan.fired().items())
        )
        print(
            f"# chaos: {plan.total_fired()} fault(s) fired"
            + (f" ({fired})" if fired else ""),
            file=sys.stderr,
        )
    if recorder is not None:
        from repro.obs import write_trace

        write_trace(recorder, trace_path, format=args.trace_format)
        destination = "stderr" if trace_path == "-" else trace_path
        print(f"# trace written to {destination}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
