"""The cached corpus, and the seeded inputs each run draws from it.

The corpus -- the four offline KB pairs, the 100k serving pair, its index and
shard files -- is generated from ``config.CORPUS_SEED`` by running this file
as a **child process**, so the measuring process never holds the generator's
heap: its peak RSS is the engine's.  The child also times the set-up work
that happens before a server starts -- index build, save, shard split, over
``1 + SETUP_PASSES`` passes -- and reports it in ``meta.json``; dataset
generation is reported separately and is not part of ``setup_s``.

Generating the 100k pair takes ~27 s, so the corpus is kept under
``.bench_build/`` and reused by later runs of the same checkout; its
directory name hashes ``src/repro``, this file and the sizes, so a changed
program builds (and times) its own.  ``--seed`` then drives everything that
is asked of the corpus: the entity order of the offline KBs, which KB1
entities become queries, and the edit stream.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import config
import harness

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
CACHE = ROOT / ".bench_build" / "perf-corpus"
INDEX_FILE = "base.idx"


def profile_seed(profile: str) -> int:
    """The generator seed of ``profile`` in the corpus."""
    return config.CORPUS_SEED * 101 + config.PROFILES.index(profile)


def entity_record(entity: Any) -> dict[str, Any]:
    return {"uri": entity.uri, "pairs": [list(pair) for pair in entity.pairs]}


def entity_from_record(record: dict[str, Any]) -> Any:
    from repro import EntityDescription

    return EntityDescription(record["uri"], [tuple(pair) for pair in record["pairs"]])


# ----------------------------------------------------------------------
# writing the corpus (child process)
# ----------------------------------------------------------------------
def write_corpus(out: Path, sizes: config.Sizes) -> None:
    """Child-process body: generate, build, save, split; write everything."""
    from repro import MinoanERConfig
    from repro.datasets.profiles import scaled_profile
    from repro.serving import ResolutionIndex
    from repro.sharding import ShardPlanner, shard_paths

    started = time.perf_counter()
    for name in config.PROFILES:
        pair = scaled_profile(name, sizes.offline[name], seed=profile_seed(name))
        document = {
            "kb1": [entity_record(e) for e in pair.kb1.entities],
            "kb2": [entity_record(e) for e in pair.kb2.entities],
            "truth": sorted(pair.ground_truth),
        }
        (out / f"offline-{name}.json").write_text(json.dumps(document), encoding="utf-8")
    offline_generate_s = time.perf_counter() - started

    started = time.perf_counter()
    pair = scaled_profile(
        "yago_imdb", sizes.index_n2 / config.YAGO_BASE_N2, seed=profile_seed("yago_imdb")
    )
    serving_generate_s = time.perf_counter() - started
    truth = {eid1: pair.kb2.uri_of(eid2) for eid1, eid2 in pair.ground_truth}
    with open(out / "kb1.jsonl", "w", encoding="utf-8") as handle:
        for eid, entity in enumerate(pair.kb1.entities):
            handle.write(json.dumps({**entity_record(entity), "expect": truth.get(eid)}) + "\n")
    with open(out / "kb2.jsonl", "w", encoding="utf-8") as handle:
        for entity in pair.kb2.entities:
            handle.write(json.dumps(entity_record(entity)) + "\n")

    index_path = out / INDEX_FILE

    def set_up() -> tuple[float, float, float]:
        build_s, index = harness.timed(lambda: ResolutionIndex.build(pair.kb2, MinoanERConfig()))
        save_s = harness.timed(lambda: index.save(index_path))[0]
        split_s = harness.timed(lambda: ShardPlanner(config.SHARDS).write(index, index_path))[0]
        return build_s, save_s, split_s

    build_s, save_s, split_s = zip(*harness.timed_passes(set_up, config.SETUP_PASSES))
    meta = {
        "offline_generate_s": offline_generate_s,
        "serving_generate_s": serving_generate_s,
        "build_s": list(build_s),
        "save_s": list(save_s),
        "split_s": list(split_s),
        "file_mb": index_path.stat().st_size / 2**20,
        "shard_file_mb": sum(p.stat().st_size for p in shard_paths(index_path, config.SHARDS)) / 2**20,
        "n1": len(pair.kb1),
        "n2": len(pair.kb2),
        "child_rss_mb": harness.peak_rss_mb(),
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=1), encoding="utf-8")


def corpus_key(sizes: config.Sizes) -> str:
    """Hash of everything the corpus and its recorded timings depend on."""
    hasher = hashlib.blake2b(digest_size=8)
    for path in sorted((SRC / "repro").rglob("*.py")) + [Path(__file__)]:
        hasher.update(path.read_bytes())
    settings = (sizes, config.CORPUS_SEED, config.SETUP_PASSES, config.SHARDS)
    hasher.update(repr(settings).encode("utf-8"))
    return hasher.hexdigest()


def build_corpus(directory: Path, quick: bool) -> None:
    """Run the corpus child; ``directory`` appears only when it is complete."""
    partial = directory.with_name(f"{directory.name}.partial-{os.getpid()}")
    partial.mkdir(parents=True)
    try:
        command = [sys.executable, str(Path(__file__).resolve()), str(partial)]
        subprocess.run(command + (["--quick"] if quick else []), check=True)
        partial.rename(directory)
    finally:
        shutil.rmtree(partial, ignore_errors=True)


def ensure_corpus(quick: bool) -> Path:
    """The corpus directory of this checkout, built on first use."""
    sizes = config.QUICK if quick else config.FULL
    prefix = "quick" if quick else "full"
    directory = CACHE / f"{prefix}-{corpus_key(sizes)}"
    if not directory.exists():
        for stale in CACHE.glob(f"{prefix}-*"):  # an earlier program's corpus
            shutil.rmtree(stale, ignore_errors=True)
        build_corpus(directory, quick)
    return directory


# ----------------------------------------------------------------------
# drawing a run's inputs from it (measuring process)
# ----------------------------------------------------------------------
@dataclass
class OfflinePair:
    kb1: list[Any]  # EntityDescription, in this seed's order
    kb2: list[Any]
    truth: set[tuple[int, int]]  # ids in that order


def load_offline(corpus: Path, seed: int) -> dict[str, OfflinePair]:
    """The four offline pairs, each KB's entities shuffled by ``seed``."""
    rng = random.Random(seed)
    pairs = {}
    for name in config.PROFILES:
        document = json.loads((corpus / f"offline-{name}.json").read_text(encoding="utf-8"))
        sides = []
        for key in ("kb1", "kb2"):
            order = list(range(len(document[key])))
            rng.shuffle(order)
            entities = [entity_from_record(document[key][old]) for old in order]
            sides.append((entities, {old: new for new, old in enumerate(order)}))
        (kb1, at1), (kb2, at2) = sides
        pairs[name] = OfflinePair(kb1, kb2, {(at1[a], at2[b]) for a, b in document["truth"]})
    return pairs


def load_meta(corpus: Path) -> dict[str, Any]:
    return json.loads((corpus / "meta.json").read_text(encoding="utf-8"))


def read_lines(path: Path, wanted: set[int]) -> dict[int, dict[str, Any]]:
    """The JSON records on the ``wanted`` lines of a JSONL file."""
    with open(path, encoding="utf-8") as handle:
        return {n: json.loads(line) for n, line in enumerate(handle) if n in wanted}


def edit_plan(rng: random.Random, n2: int, at_least: int, target_delta: int) -> list[tuple[str, int]]:
    """``(kind, KB2 entity number)`` per edit, in the configured mix, until
    the delta holds ``target_delta`` entities (and ``at_least`` edits exist).

    Deletes always name a base entity no earlier edit deleted, so no edit of
    the stream is a no-op.
    """
    kinds = [kind for kind, _ in config.EDIT_MIX]
    weights = [weight for _, weight in config.EDIT_MIX]
    victims = list(range(n2))
    rng.shuffle(victims)
    in_delta: set[tuple[str, int]] = set()
    plan: list[tuple[str, int]] = []
    while len(plan) < at_least or len(in_delta) < target_delta:
        kind = rng.choices(kinds, weights)[0]
        if kind == "delete":
            victim = victims.pop()
            in_delta.discard(("base", victim))
            plan.append((kind, victim))
            continue
        source = rng.randrange(n2)
        in_delta.add(("base", source) if kind == "reupsert" else ("new", len(plan)))
        plan.append((kind, source))
    return plan


@dataclass
class ServingFixture:
    index_path: Path
    queries: list[Any]  # EntityDescription
    expect: list[str | None]  # ground-truth KB2 URI per query
    edits: list[tuple[str, Any]]  # ("upsert", EntityDescription) | ("delete", uri)
    meta: dict[str, Any]


def load_serving(corpus: Path, sizes: config.Sizes, seed: int, edits: bool = False) -> ServingFixture:
    """This seed's queries (distinct KB1 entities) and, when asked, edits."""
    meta = load_meta(corpus)
    rng = random.Random(seed)
    wanted = max(
        sizes.frozen_queries,
        sizes.sharded_queries,
        sizes.live_stream_ops,
        sizes.live_verify,
        sizes.warmup_queries,
    )
    chosen = rng.sample(range(meta["n1"]), min(wanted, meta["n1"]))
    records = read_lines(corpus / "kb1.jsonl", set(chosen))
    queries = [entity_from_record(records[n]) for n in chosen]
    expect = [records[n]["expect"] for n in chosen]

    made: list[tuple[str, Any]] = []
    if edits:
        from repro import EntityDescription

        plan = edit_plan(rng, meta["n2"], sizes.live_batch_edits, sizes.live_delta)
        sources = read_lines(corpus / "kb2.jsonl", {number for _, number in plan})
        for position, (kind, number) in enumerate(plan):
            record = sources[number]
            if kind == "delete":
                made.append(("delete", record["uri"]))
                continue
            entity = entity_from_record(record)
            pairs = list(entity.pairs)
            if kind == "reupsert":
                uri = entity.uri
                pairs.append(("perf:revision", f"revised edition {position}"))
            else:
                uri = f"{entity.uri}/perf-new-{position}"
            made.append(("upsert", EntityDescription(uri, pairs)))
    return ServingFixture(corpus / INDEX_FILE, queries, expect, made, meta)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="write the corpus (child of run.py)")
    parser.add_argument("directory", type=Path)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    write_corpus(args.directory, config.QUICK if args.quick else config.FULL)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(main())
