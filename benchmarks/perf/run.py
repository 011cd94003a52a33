"""One perf harness: four workloads, named end-to-end and per-layer metrics.

    python benchmarks/perf/run.py --seed 424                 # all four, full pass counts
    python benchmarks/perf/run.py --seed 7 --workload serve_live --seconds 20
    python benchmarks/perf/run.py --quick                    # smoke run, < 30 s
    python benchmarks/perf/run.py diff A.json B.json         # before / after

Each workload prints every metric by name with its unit, checks the
program's outputs against an oracle, and the process exits 1 when any
check failed.  The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``): with ``--trace 0``
the end-to-end metrics every workload emits, with ``--trace 1`` the
per-layer ones -- the form ``BENCHMARK.json``'s driver reads.  See
README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
OUT = HERE / "out"
# The program under test is imported from the checkout's own src/, by this
# process and by the shard workers it starts.
sys.path.insert(0, str(SRC))
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)

import config  # noqa: E402
import harness  # noqa: E402

UNITS = {metric.name: metric.unit for metric in config.END_TO_END}
PASS_COUNTS = {
    name: getattr(config, name)
    for name in ("SETUP_PASSES", "OFFLINE_PASSES", "FROZEN_PASSES", "SHARDED_PASSES",
                 "LIVE_STREAM_PASSES", "LIVE_BATCH_PASSES", "QUICK_PASSES", "BUDGET_PASSES",
                 "MIN_TIMED_PASSES")
}


def run_workload(name: str, args: argparse.Namespace) -> dict:
    import fixtures
    import workloads

    corpus = fixtures.ensure_corpus(args.quick)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT))
    try:
        ctx = workloads.Context(
            sizes=config.QUICK if args.quick else config.FULL,
            quick=args.quick,
            seed=args.seed,
            seconds=args.seconds,
            untraced=args.trace in ("0", "both"),
            traced=args.trace in ("1", "both"),
            corpus=corpus,
            workdir=workdir,
            out_dir=OUT,
        )
        result = workloads.WORKLOADS[name](ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": name,
        "e2e": result.e2e,
        "passes": result.passes,
        "samples": result.samples,
        "per_layer": result.layers,
        "skipped_probes": result.skipped_probes,
        "digests": result.digests,
        "attempted": result.attempted,
        "failed": result.failed,
        "failures": result.failures,
    }


def show(record: dict, traced: bool) -> None:
    print(f"== {record['workload']}: {record['attempted']} operations, {record['failed']} failed")
    calls = record["samples"].get("calls_per_pass")
    for name, value in record["e2e"].items():
        count = record["samples"].get(name)
        note = f" n={count}" if count else ""
        if note and name.startswith("query_"):
            note += f" passes x {calls} calls"
        print(f"  {name:<28}{value:>14.4f} {UNITS.get(name, ''):<6}{note}")
    if traced:
        for name, value in sorted(record["per_layer"].items()):
            print(f"    {name:<38}{value:>14.4f} {config.layer_unit(name)}")
        for skipped in record["skipped_probes"]:
            print(f"    skipped probe: {skipped}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


def contract_line(records: list[dict], traced: bool) -> str:
    """The result object BENCHMARK.json's driver reads.  The driver runs one
    workload per process; after several, the counts are summed and the
    metrics are the last workload's.  The driver wants every listed
    per-layer metric from every workload: one a workload does not measure
    (or whose probe was skipped) reads 0."""
    record = records[-1]
    if traced:
        metrics = {
            name: {"value": record["per_layer"].get(name, 0.0), "unit": unit}
            for name, unit, _ in config.layer_metrics()
        }
    else:
        metrics = {
            m.name: {"value": record["e2e"][m.name], "unit": m.unit} for m in config.GATED
        }
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def run_in_child(name: str, args: argparse.Namespace) -> dict:
    """One workload in a process of its own, so that its peak RSS (and
    anything else a previous workload left behind) is its own."""
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        out = Path(scratch) / "record.json"
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--trace", args.trace, "--out", str(out)]
        command += ["--quick"] if args.quick else []
        command += ["--seconds", str(args.seconds)] if args.seconds is not None else []
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        sys.stdout.write("".join(done.stdout.splitlines(keepends=True)[:-1]))
        if not out.exists():
            raise SystemExit(f"run.py: workload {name} exited {done.returncode} without a result")
        return json.loads(out.read_text(encoding="utf-8"))["workloads"][name]


def measure(args: argparse.Namespace) -> int:
    if not (SRC / "repro").is_dir():
        print(f"run.py: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    names = args.workload or list(config.WORKLOADS)
    OUT.mkdir(exist_ok=True)
    host = harness.host_fingerprint()
    records = []
    for name in names:
        if len(names) > 1:
            records.append(run_in_child(name, args))
        else:
            records.append(run_workload(name, args))
            show(records[-1], traced=args.trace != "0")
    if args.out:
        document = {
            "schema": 2,
            "quick": args.quick,
            "seed": args.seed,
            "seconds": args.seconds,
            "pass_counts": PASS_COUNTS,
            "host": host,
            "claim": None,
            "workloads": {record["workload"]: record for record in records},
        }
        Path(args.out).write_text(json.dumps(document, indent=1), encoding="utf-8")
    sys.stdout.flush()
    print(contract_line(records, traced=args.trace == "1"))
    return 1 if any(record["failed"] for record in records) else 0


# ----------------------------------------------------------------------
# diff
# ----------------------------------------------------------------------
def quartile_spread(values: list[float]) -> float:
    """Distance between first and third quartile as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


def verdict(metric: config.Metric, a: dict, b: dict) -> tuple[str, float]:
    """``(verdict, ratio b/a)`` of one metric on one workload."""
    before, after = a["e2e"][metric.name], b["e2e"][metric.name]
    ratio = after / before if before else (1.0 if after == before else math.inf)
    worse = ratio - 1.0 if metric.better == "lower" else 1.0 - ratio
    if before == after:
        return "unchanged", ratio
    spread = max(
        quartile_spread(a["passes"].get(metric.name, [])),
        quartile_spread(b["passes"].get(metric.name, [])),
    )
    if spread > metric.bound and metric.bound:
        return "unresolved", ratio
    if worse > metric.bound:
        return "regressed", ratio
    if -worse > metric.bound:
        return "improved", ratio
    return "unchanged", ratio


def diff(args: argparse.Namespace) -> int:
    a = json.loads(Path(args.a).read_text(encoding="utf-8"))
    b = json.loads(Path(args.b).read_text(encoding="utf-8"))
    settings = [(d["quick"], d["seconds"], d["pass_counts"]) for d in (a, b)]
    if settings[0] != settings[1]:
        print(f"not comparable: measured with {settings[0]} against {settings[1]}")
        return 2
    bad = False
    print(f"{'workload':<14}{'metric':<26}{'A':>12}{'B':>12}  {'B/A':>7}  verdict")
    for name in config.WORKLOADS:
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in config.END_TO_END:
            if name not in metric.workloads:
                continue
            word, ratio = verdict(metric, wa, wb)
            if metric.name == "failed_share":
                word = "regressed" if wb["e2e"][metric.name] > wa["e2e"][metric.name] else "unchanged"
            bad = bad or word == "regressed"
            print(
                f"{name:<14}{metric.name:<26}{wa['e2e'][metric.name]:>12.4f}"
                f"{wb['e2e'][metric.name]:>12.4f}  {ratio:>6.3f}x  {word}"
                f"  (A = {wa['e2e'][metric.name]:.4f} {metric.unit}, bound {metric.bound})"
            )
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["diff"]:
        parser = argparse.ArgumentParser(prog="run.py diff", description="compare two result files")
        parser.add_argument("a")
        parser.add_argument("b")
        return diff(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=config.WORKLOADS,
                        help="run only this workload (repeatable); default all four")
    parser.add_argument("--seed", type=int, default=424)
    parser.add_argument("--quick", action="store_true",
                        help="same code path at restaurant-scale sizes, 1+2 passes")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget per workload: cuts pass counts, never sizes "
                             "(default: the full pass counts)")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both",
                        help="0: end-to-end only; 1: traced pass only; both (default)")
    parser.add_argument("--out", help="write the full result document here")
    return measure(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
