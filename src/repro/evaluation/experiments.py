"""Experiment drivers: one function per table/figure of the paper.

Each driver takes a :class:`~repro.datasets.generator.KBPair` (plus
configuration) and returns a plain dataclass with the numbers the
corresponding table or figure reports.  The benchmark harness under
``benchmarks/`` and the formatting helpers in
:mod:`repro.evaluation.reporting` are thin wrappers around these.

| Paper artifact | Driver |
|----------------|--------|
| Table 1 (dataset statistics)        | :func:`dataset_statistics` |
| Figure 2 (similarity distribution)  | :func:`similarity_distribution` |
| Table 2 (block statistics)          | :func:`block_statistics` |
| Table 3 (comparison to baselines)   | :func:`comparison` |
| Table 4 (matching-rule evaluation)  | :func:`rule_ablation` |
| Figure 5 (sensitivity analysis)     | :func:`sensitivity` |
| Figure 6 (scalability)              | :func:`scalability` |
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.bsl import BSLBaseline
from repro.baselines.paris import ParisBaseline, ParisConfig
from repro.baselines.sigma import SigmaBaseline, SigmaConfig
from repro.blocking.metrics import BlockingReport, evaluate_blocks
from repro.core.config import MinoanERConfig
from repro.core.pipeline import MinoanER
from repro.datasets.generator import KBPair
from repro.evaluation.metrics import MatchingReport, evaluate_matches
from repro.kb.statistics import KBStatistics
from repro.parallel.context import ParallelContext
from repro.parallel.pipeline import ParallelMinoanER
from repro.similarity.neighbor import max_neighbor_value_similarity
from repro.similarity.value import normalized_value_similarity


# ----------------------------------------------------------------------
# Table 1: dataset statistics
# ----------------------------------------------------------------------


@dataclass
class DatasetStatistics:
    """One Table 1 column: the technical characteristics of a KB pair."""

    name: str
    entities1: int
    entities2: int
    triples1: int
    triples2: int
    avg_tokens1: float
    avg_tokens2: float
    attributes1: int
    attributes2: int
    relations1: int
    relations2: int
    types1: int
    types2: int
    vocabularies1: int
    vocabularies2: int
    matches: int


def _count_types(kb) -> int:
    """Distinct values of ``*type``-named attributes (footnote 8 analogue)."""
    values: set[str] = set()
    for entity in kb.entities:
        for attribute, value in entity.pairs:
            if attribute.endswith("type"):
                values.add(value)
    return len(values)


def _count_vocabularies(kb) -> int:
    """Distinct attribute-name prefixes (the ``voc:`` namespace)."""
    prefixes = {
        attribute.split(":", 1)[0]
        for attribute in kb.attribute_names()
        if ":" in attribute
    }
    return max(1, len(prefixes))


def dataset_statistics(pair: KBPair) -> DatasetStatistics:
    """Compute the Table 1 row for a KB pair."""
    kb1, kb2 = pair.kb1, pair.kb2
    return DatasetStatistics(
        name=pair.name,
        entities1=len(kb1),
        entities2=len(kb2),
        triples1=kb1.triple_count(),
        triples2=kb2.triple_count(),
        avg_tokens1=kb1.average_tokens_per_entity(),
        avg_tokens2=kb2.average_tokens_per_entity(),
        attributes1=len(kb1.attribute_names()),
        attributes2=len(kb2.attribute_names()),
        relations1=len(kb1.relation_names()),
        relations2=len(kb2.relation_names()),
        types1=_count_types(kb1),
        types2=_count_types(kb2),
        vocabularies1=_count_vocabularies(kb1),
        vocabularies2=_count_vocabularies(kb2),
        matches=len(pair.ground_truth),
    )


# ----------------------------------------------------------------------
# Figure 2: value vs neighbor similarity of matches
# ----------------------------------------------------------------------


@dataclass
class SimilarityDistribution:
    """Figure 2 data: one (valueSim, max neighbor valueSim) dot per match."""

    name: str
    points: list[tuple[float, float]]
    strongly_similar: int  # value similarity > 0.5
    nearly_similar: int  # value similarity <= 0.5
    high_neighbor: int  # neighbor similarity > 0.5 among nearly similar

    @property
    def nearly_similar_fraction(self) -> float:
        total = len(self.points)
        return self.nearly_similar / total if total else 0.0


def similarity_distribution(
    pair: KBPair,
    config: MinoanERConfig | None = None,
    sample: int | None = None,
) -> SimilarityDistribution:
    """Normalised value/neighbor similarity of every ground-truth match.

    The horizontal axis is normalised ``valueSim`` and the vertical the
    maximum normalised ``valueSim`` among top-neighbor pairs, exactly as
    Figure 2 plots them.  ``sample`` caps the number of matches scored
    (the computation is quadratic in neighbor count).
    """
    config = config or MinoanERConfig()
    stats1 = KBStatistics(pair.kb1, config.name_attributes_k, config.relations_n)
    stats2 = KBStatistics(pair.kb2, config.name_attributes_k, config.relations_n)
    matches = sorted(pair.ground_truth)
    if sample is not None:
        matches = matches[:sample]
    points: list[tuple[float, float]] = []
    for eid1, eid2 in matches:
        value = normalized_value_similarity(pair.kb1, pair.kb2, eid1, eid2)
        neighbor = max_neighbor_value_similarity(stats1, stats2, eid1, eid2, normalized=True)
        points.append((value, neighbor))
    strongly = sum(1 for v, _ in points if v > 0.5)
    nearly = len(points) - strongly
    high_neighbor = sum(1 for v, n in points if v <= 0.5 and n > 0.5)
    return SimilarityDistribution(
        name=pair.name,
        points=points,
        strongly_similar=strongly,
        nearly_similar=nearly,
        high_neighbor=high_neighbor,
    )


# ----------------------------------------------------------------------
# Table 2: block statistics
# ----------------------------------------------------------------------


@dataclass
class BlockStatistics:
    """One Table 2 column."""

    name: str
    name_blocks: int
    token_blocks: int
    name_comparisons: int
    token_comparisons: int
    cartesian: int
    report: BlockingReport


def block_statistics(pair: KBPair, config: MinoanERConfig | None = None) -> BlockStatistics:
    """Blocking statistics and quality for a KB pair (Table 2)."""
    pipeline = MinoanER(config)
    stats1 = pipeline.build_statistics(pair.kb1)
    stats2 = pipeline.build_statistics(pair.kb2)
    names, tokens = pipeline.build_blocks(stats1, stats2)
    report = evaluate_blocks([names, tokens], pair.ground_truth)
    return BlockStatistics(
        name=pair.name,
        name_blocks=len(names),
        token_blocks=len(tokens),
        name_comparisons=names.total_comparisons(),
        token_comparisons=tokens.total_comparisons(),
        cartesian=len(pair.kb1) * len(pair.kb2),
        report=report,
    )


# ----------------------------------------------------------------------
# Table 3: comparison with baselines
# ----------------------------------------------------------------------


@dataclass
class ComparisonResult:
    """One Table 3 column: each system's P/R/F1 on one dataset."""

    name: str
    reports: dict[str, MatchingReport] = field(default_factory=dict)
    details: dict[str, str] = field(default_factory=dict)


def comparison(
    pair: KBPair,
    config: MinoanERConfig | None = None,
    systems: tuple[str, ...] = ("minoaner", "bsl", "paris", "sigma"),
    bsl: BSLBaseline | None = None,
    paris_config: ParisConfig | None = None,
    sigma_config: SigmaConfig | None = None,
) -> ComparisonResult:
    """Run MinoanER and the implemented baselines on one KB pair.

    The SiGMa-like baseline receives the pair's oracle relation
    alignment (the assumption SiGMa makes); MinoanER and PARIS receive
    nothing beyond the two KBs.
    """
    result = ComparisonResult(name=pair.name)
    ground_truth = pair.ground_truth
    if "minoaner" in systems:
        resolution = MinoanER(config).resolve(pair.kb1, pair.kb2)
        result.reports["MinoanER"] = resolution.evaluate(ground_truth)
    if "bsl" in systems:
        baseline = bsl or BSLBaseline()
        bsl_result = baseline.run(pair.kb1, pair.kb2, ground_truth)
        result.reports["BSL"] = evaluate_matches(bsl_result.best_matches, ground_truth)
        result.details["BSL"] = bsl_result.best_config.label()
    if "paris" in systems:
        paris_result = ParisBaseline(paris_config).run(pair.kb1, pair.kb2)
        result.reports["PARIS"] = evaluate_matches(paris_result.matches, ground_truth)
    if "sigma" in systems:
        sigma_result = SigmaBaseline(pair.relation_alignment, sigma_config).run(
            pair.kb1, pair.kb2
        )
        result.reports["SiGMa"] = evaluate_matches(sigma_result.matches, ground_truth)
    return result


# ----------------------------------------------------------------------
# Table 4: matching-rule ablation
# ----------------------------------------------------------------------

RULE_VARIANTS: dict[str, dict[str, bool]] = {
    "R1": {"use_value_rule": False, "use_rank_aggregation": False},
    "R2": {"use_name_rule": False, "use_rank_aggregation": False},
    "R3": {"use_name_rule": False, "use_value_rule": False},
    "no R4": {"use_reciprocity": False},
    "no neighbors": {"use_neighbor_evidence": False},
    "full": {},
}
"""Rule subsets evaluated by Table 4 (each rule alone, the full workflow
without reciprocity, and the full workflow without neighbor evidence)."""


@dataclass
class RuleAblation:
    """One Table 4 column: quality of each rule variant on one dataset."""

    name: str
    reports: dict[str, MatchingReport] = field(default_factory=dict)


def rule_ablation(
    pair: KBPair,
    config: MinoanERConfig | None = None,
    variants: dict[str, dict[str, bool]] | None = None,
) -> RuleAblation:
    """Run each rule variant of Table 4 on one KB pair."""
    base = config or MinoanERConfig()
    result = RuleAblation(name=pair.name)
    for label, overrides in (variants or RULE_VARIANTS).items():
        variant_config = base.with_options(**overrides)
        resolution = MinoanER(variant_config).resolve(pair.kb1, pair.kb2)
        result.reports[label] = resolution.evaluate(pair.ground_truth)
    return result


# ----------------------------------------------------------------------
# Figure 5: sensitivity analysis
# ----------------------------------------------------------------------

SENSITIVITY_GRID: dict[str, tuple] = {
    "name_attributes_k": (1, 2, 3, 4, 5),
    "candidates_k": (5, 10, 15, 20, 25),
    "relations_n": (1, 2, 3, 4, 5),
    "theta": (0.3, 0.4, 0.5, 0.6, 0.7, 0.8),
}
"""Parameter grids of the paper's sensitivity analysis (Figure 5)."""


@dataclass
class SensitivityResult:
    """F1 as one parameter varies, all others at the default config."""

    name: str
    parameter: str
    values: tuple
    f1_scores: list[float]


def sensitivity(
    pair: KBPair,
    parameter: str,
    values: tuple | None = None,
    config: MinoanERConfig | None = None,
) -> SensitivityResult:
    """One Figure 5 curve: vary ``parameter``, fix the rest."""
    if values is None:
        values = SENSITIVITY_GRID[parameter]
    base = config or MinoanERConfig()
    scores: list[float] = []
    for value in values:
        variant = base.with_options(**{parameter: value})
        resolution = MinoanER(variant).resolve(pair.kb1, pair.kb2)
        scores.append(resolution.evaluate(pair.ground_truth).f1)
    return SensitivityResult(
        name=pair.name, parameter=parameter, values=tuple(values), f1_scores=scores
    )


# ----------------------------------------------------------------------
# Figure 6: scalability
# ----------------------------------------------------------------------


@dataclass
class ScalabilityPoint:
    """One Figure 6 data point."""

    workers: int
    total_seconds: float
    matching_seconds: float
    speedup: float


@dataclass
class ScalabilityResult:
    """Run time and speedup as worker count grows (one Figure 6 panel)."""

    name: str
    backend: str
    points: list[ScalabilityPoint]
    matches: int

    def matching_share(self) -> float:
        """Fraction of total time spent in the matching phase (averaged)."""
        if not self.points:
            return 0.0
        shares = [
            point.matching_seconds / point.total_seconds
            for point in self.points
            if point.total_seconds > 0
        ]
        return sum(shares) / len(shares) if shares else 0.0


def scalability(
    pair: KBPair,
    workers: tuple[int, ...] = (1, 2, 4, 8),
    backend: str = "simulated",
    config: MinoanERConfig | None = None,
) -> ScalabilityResult:
    """Figure 6: stage-parallel pipeline time as the worker pool grows.

    With the default ``simulated`` backend the pipeline runs **once**
    with per-partition timing (the task count per partitioned node set
    is fixed at ``3 * max(workers)``, the paper's parallelism factor, so
    each task does the same work regardless of worker count) and each worker
    count's wall time is the sum of per-stage LPT makespans (see
    :func:`repro.parallel.context.simulated_makespan`) plus the
    driver-serial residue -- the honest substitute for a Spark cluster
    on a single CPython process.

    Any real backend (``serial``/``thread``/``process``) is also
    accepted: then the pipeline is re-run per worker count and measured
    wall times are reported (expect pool overhead to dominate at small
    scale).

    Speedup is relative to the smallest worker count measured (the
    paper normalises to 1 core; its footnote 14 uses the smallest
    feasible count when 1 is impractical).
    """
    from repro.parallel.context import simulated_makespan

    points: list[ScalabilityPoint] = []
    matches = 0
    if backend == "simulated":
        with ParallelContext(num_workers=max(workers), backend="serial") as context:
            resolution = ParallelMinoanER(config, context).resolve(pair.kb1, pair.kb2)
        matches = len(resolution.matches)
        stage_wall = sum(record.seconds for record in context.stage_log)
        residue = max(0.0, resolution.timings["total"] - stage_wall)
        # "Matching" follows the paper: Algorithm 2 only (the match:*
        # stages plus their driver-side residue), not graph construction.
        matching_wall = resolution.timings["matching"]
        matching_stage = sum(
            record.seconds
            for record in context.stage_log
            if record.name.startswith("match:")
        )
        for count in workers:
            staged = sum(
                simulated_makespan(record.partition_seconds, count)
                for record in context.stage_log
            )
            staged_matching = sum(
                simulated_makespan(record.partition_seconds, count)
                for record in context.stage_log
                if record.name.startswith("match:")
            )
            points.append(
                ScalabilityPoint(
                    workers=count,
                    total_seconds=residue + staged,
                    matching_seconds=max(0.0, matching_wall - matching_stage)
                    + staged_matching,
                    speedup=0.0,
                )
            )
    else:
        for count in workers:
            with ParallelContext(num_workers=count, backend=backend) as context:
                resolution = ParallelMinoanER(config, context).resolve(pair.kb1, pair.kb2)
            matches = len(resolution.matches)
            points.append(
                ScalabilityPoint(
                    workers=count,
                    total_seconds=resolution.timings["total"],
                    matching_seconds=resolution.timings["matching"]
                    + resolution.timings["graph"],
                    speedup=0.0,
                )
            )
    if points:
        base = points[0].total_seconds
        for point in points:
            point.speedup = base / point.total_seconds if point.total_seconds else 0.0
    return ScalabilityResult(
        name=pair.name, backend=backend, points=points, matches=matches
    )
