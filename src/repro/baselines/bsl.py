"""BSL: the paper's heavily fine-tuned value-only baseline (section 6).

BSL receives the *unpruned* disjunctive blocking graph -- i.e. every
candidate pair suggested by name or (purged) token blocking -- scores
each pair with a normalised token-vector similarity, and clusters with
Unique Mapping Clustering.  Unlike MinoanER it uses no neighbor or name
evidence; instead, it is allowed to fine-tune on the ground truth over

* token n-grams with ``n in {1, 2, 3}``,
* TF and TF-IDF weighting,
* Cosine / Jaccard / Generalized Jaccard similarities, plus the SiGMa
  similarity on TF-IDF weights only,
* similarity thresholds ``0.00, 0.05, ..., 0.95``

-- 420 configurations, exactly the paper's grid.  The best F1 is
reported, which makes BSL an *optimistic* value-only reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.blocking.name_blocking import name_blocks
from repro.blocking.purging import purge_blocks
from repro.blocking.token_blocking import token_blocks
from repro.clustering.unique_mapping import unique_mapping_clustering
from repro.evaluation.metrics import MatchingReport, evaluate_matches
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.statistics import KBStatistics
from repro.similarity.measures import MEASURES
from repro.similarity.weighting import tf_idf_profiles, tf_profiles

DEFAULT_THRESHOLDS = tuple(round(0.05 * i, 2) for i in range(20))
"""Thresholds 0.00 .. 0.95, step 0.05 (paper grid)."""


@dataclass(frozen=True)
class BSLConfig:
    """One point of the BSL grid."""

    ngram: int
    weighting: str  # "tf" | "tfidf"
    measure: str  # key into repro.similarity.measures.MEASURES
    threshold: float

    def label(self) -> str:
        return f"{self.ngram}-gram/{self.weighting}/{self.measure}/t={self.threshold:.2f}"


@dataclass
class BSLResult:
    """Grid-search outcome: the best configuration and its quality."""

    best_config: BSLConfig
    best_report: MatchingReport
    best_matches: set[tuple[int, int]]
    configurations_tried: int
    per_config: list[tuple[BSLConfig, MatchingReport]]

    def __repr__(self) -> str:
        return f"BSLResult({self.best_config.label()}, {self.best_report})"


def candidate_pairs(
    kb1: KnowledgeBase,
    kb2: KnowledgeBase,
    name_attributes_k: int = 2,
) -> set[tuple[int, int]]:
    """The unpruned blocking-graph edges BSL compares.

    Same blocks as MinoanER (name blocks + purged token blocks), but
    *every* co-occurring pair is kept -- no top-K pruning.
    """
    stats1 = KBStatistics(kb1, top_k_name_attributes=name_attributes_k)
    stats2 = KBStatistics(kb2, top_k_name_attributes=name_attributes_k)
    tokens = purge_blocks(token_blocks(kb1, kb2), cartesian=len(kb1) * len(kb2))
    names = name_blocks(stats1, stats2)
    pairs = tokens.distinct_pairs()
    pairs.update(names.distinct_pairs())
    return pairs


class BSLBaseline:
    """Grid-searched value-only baseline.

    Parameters
    ----------
    ngram_sizes / weightings / measures / thresholds:
        The grid; defaults reproduce the paper's 420 configurations
        (the ``sigma`` measure is paired with TF-IDF only, as in the
        paper).
    """

    def __init__(
        self,
        ngram_sizes: Sequence[int] = (1, 2, 3),
        weightings: Sequence[str] = ("tf", "tfidf"),
        measures: Sequence[str] = ("cosine", "jaccard", "generalized_jaccard", "sigma"),
        thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    ):
        unknown = set(measures) - set(MEASURES)
        if unknown:
            raise ValueError(f"unknown measures: {sorted(unknown)}")
        self.ngram_sizes = tuple(ngram_sizes)
        self.weightings = tuple(weightings)
        self.measures = tuple(measures)
        self.thresholds = tuple(thresholds)

    def _scheme_configs(self) -> Iterable[tuple[int, str, str]]:
        for ngram in self.ngram_sizes:
            for weighting in self.weightings:
                for measure in self.measures:
                    if measure == "sigma" and weighting != "tfidf":
                        continue  # SiGMa similarity applies to TF-IDF only
                    yield ngram, weighting, measure

    def run(
        self,
        kb1: KnowledgeBase,
        kb2: KnowledgeBase,
        ground_truth: set[tuple[int, int]],
        pairs: set[tuple[int, int]] | None = None,
    ) -> BSLResult:
        """Search the grid; return the configuration maximising F1.

        ``pairs`` defaults to :func:`candidate_pairs`.  Per (n-gram,
        weighting, measure) scheme the pair similarities are computed
        once and all thresholds are swept over the same scores.
        """
        if pairs is None:
            pairs = candidate_pairs(kb1, kb2)
        ordered_pairs = sorted(pairs)
        profile_cache: dict[tuple[int, str], tuple[list[dict], list[dict]]] = {}
        per_config: list[tuple[BSLConfig, MatchingReport]] = []
        best: tuple[BSLConfig, MatchingReport, set[tuple[int, int]]] | None = None
        tried = 0

        for ngram, weighting, measure_name in self._scheme_configs():
            profiles1, profiles2 = self._profiles(profile_cache, kb1, kb2, ngram, weighting)
            measure: Callable = MEASURES[measure_name]
            scored = [
                (eid1, eid2, measure(profiles1[eid1], profiles2[eid2]))
                for eid1, eid2 in ordered_pairs
            ]
            for threshold in self.thresholds:
                tried += 1
                config = BSLConfig(ngram, weighting, measure_name, threshold)
                matches = unique_mapping_clustering(scored, threshold=threshold)
                report = evaluate_matches(matches, ground_truth)
                per_config.append((config, report))
                if best is None or report.f1 > best[1].f1:
                    best = (config, report, matches)

        if best is None:
            raise ValueError("empty BSL grid: no configurations to try")
        return BSLResult(
            best_config=best[0],
            best_report=best[1],
            best_matches=best[2],
            configurations_tried=tried,
            per_config=per_config,
        )

    @staticmethod
    def _profiles(cache, kb1, kb2, ngram, weighting):
        key = (ngram, weighting)
        if key not in cache:
            build = tf_profiles if weighting == "tf" else tf_idf_profiles
            cache[key] = (build(kb1, n=ngram), build(kb2, n=ngram))
        return cache[key]
