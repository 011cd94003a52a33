"""Batch/serve equivalence: the headline contract of repro.serving.

Serving every KB1 entity through ``MatchEngine.match_batch`` must
reproduce the batch pipeline's match set exactly -- same pairs, same
producing rules, same scores -- on multiple synthetic profiles, and the
contract must survive an index save/load round-trip.
"""

from functools import lru_cache

import pytest

from repro.core.config import MinoanERConfig
from repro.core.pipeline import MinoanER
from repro.datasets.profiles import scaled_profile
from repro.kernels import get_backend
from repro.serving import MatchEngine, ResolutionIndex


def assert_serving_reproduces_batch(pair, config=None, index_dir=None):
    """``index_dir``: serve off the index saved there and loaded back."""
    config = config or MinoanERConfig()
    batch_result = MinoanER(config).resolve(pair.kb1, pair.kb2)
    index = ResolutionIndex.build(pair.kb2, config)
    if index_dir is not None:
        index.save(index_dir / "kb2.idx")
        index = ResolutionIndex.load(index_dir / "kb2.idx")
    engine = MatchEngine(index)
    decisions = engine.match_batch(list(pair.kb1))

    served = {
        (eid1, decision.kb2_id)
        for eid1, decision in enumerate(decisions)
        if decision.matched
    }
    assert served == batch_result.matches

    for eid1, decision in enumerate(decisions):
        if decision.matched:
            pair_key = (eid1, decision.kb2_id)
            assert decision.rule == batch_result.matching.rule_of[pair_key]
            assert decision.score == batch_result.matching.scores[pair_key]
    return engine, batch_result


#: The four paper regimes, scaled down to a few hundred entities a side.
GRID_SCALES = {"restaurant": 0.3, "rexa_dblp": 0.1, "yago_imdb": 0.1, "bbc_dbpedia": 0.2}


@lru_cache(maxsize=None)
def grid_pair(profile):
    return scaled_profile(profile, GRID_SCALES[profile])


class TestBatchServeEquivalence:
    @pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
    @pytest.mark.parametrize("candidates_k", [15, 5], ids=["k15", "k5"])
    @pytest.mark.parametrize("dynamic_pruning", [False, True], ids=["static", "dynamic"])
    @pytest.mark.parametrize("profile", sorted(GRID_SCALES))
    def test_grid(self, profile, dynamic_pruning, candidates_k, loaded, tmp_path):
        config = MinoanERConfig(dynamic_pruning=dynamic_pruning, candidates_k=candidates_k)
        assert_serving_reproduces_batch(
            grid_pair(profile), config, index_dir=tmp_path if loaded else None
        )

    def test_mini_profile(self, mini_pair):
        assert_serving_reproduces_batch(mini_pair)

    def test_hard_profile(self, hard_pair):
        assert_serving_reproduces_batch(hard_pair)

    def test_restaurant_profile_scaled(self):
        assert_serving_reproduces_batch(scaled_profile("restaurant", 0.3))

    def test_bbc_profile_scaled(self):
        assert_serving_reproduces_batch(scaled_profile("bbc_dbpedia", 0.2))

    def test_equivalence_with_dynamic_pruning(self, mini_pair):
        assert_serving_reproduces_batch(
            mini_pair, MinoanERConfig(dynamic_pruning=True)
        )

    def test_equivalence_without_purging(self, mini_pair):
        assert_serving_reproduces_batch(
            mini_pair, MinoanERConfig(purge_blocks=False)
        )

    @pytest.mark.parametrize("backend", ["numpy"])
    def test_equivalence_per_backend(self, mini_pair, backend):
        # numpy is the one kernel runtime; the case pins that the
        # engine's kernels come from it and still reproduce the batch.
        assert get_backend().__name__ == f"repro.kernels.{backend}_backend"
        assert_serving_reproduces_batch(mini_pair, MinoanERConfig())


class TestLoadedIndexEquivalence:
    def test_roundtripped_index_serves_identically(self, mini_pair, tmp_path):
        config = MinoanERConfig()
        built = ResolutionIndex.build(mini_pair.kb2, config)
        path = tmp_path / "kb2.idx"
        built.save(path)
        loaded = ResolutionIndex.load(path)

        fresh = MatchEngine(built).match_batch(list(mini_pair.kb1))
        reloaded = MatchEngine(loaded).match_batch(list(mini_pair.kb1))
        assert fresh == reloaded

        batch = MinoanER(config).resolve(mini_pair.kb1, mini_pair.kb2)
        served = {
            (eid1, decision.kb2_id)
            for eid1, decision in enumerate(reloaded)
            if decision.matched
        }
        assert served == batch.matches

    def test_roundtripped_single_queries_identical(self, mini_pair, tmp_path):
        built = ResolutionIndex.build(mini_pair.kb2)
        path = tmp_path / "kb2.idx"
        built.save(path)
        loaded = ResolutionIndex.load(path)
        fresh = MatchEngine(built)
        reloaded = MatchEngine(loaded)
        for entity in list(mini_pair.kb1)[:25]:
            assert fresh.match(entity) == reloaded.match(entity)


class TestMemmappedIndexEquivalence:
    """A loaded index must serve the built index's decisions bit for bit.

    Loading maps the file and swaps every dict-shaped structure of
    :meth:`ResolutionIndex.build` for a lazily-decoded view, and the row
    kernels consume the mapped int32 slices directly, so equality here
    gates the whole columnar format + fused-kernel stack, per profile
    and per backend.
    """

    @staticmethod
    def _pair_of(name, request):
        if name in ("mini", "hard"):
            return request.getfixturevalue(f"{name}_pair")
        profile, scale = name
        return scaled_profile(profile, scale)

    @pytest.mark.parametrize(
        "profile",
        [
            "mini",
            "hard",
            ("restaurant", 0.3),
            ("rexa_dblp", 0.15),
            ("bbc_dbpedia", 0.2),
            ("yago_imdb", 0.15),
        ],
        ids=["mini", "hard", "restaurant", "rexa_dblp", "bbc_dbpedia", "yago_imdb"],
    )
    def test_mmap_serves_identically(self, profile, request, tmp_path):
        pair = self._pair_of(profile, request)
        built = ResolutionIndex.build(pair.kb2)
        path = tmp_path / "kb2.idx"
        built.save(path)
        fresh = MatchEngine(built)
        mapped = MatchEngine(ResolutionIndex.load(path))

        queries = list(pair.kb1)
        assert fresh.match_batch(queries) == mapped.match_batch(queries)
        for entity in queries[:25]:
            assert fresh.match(entity) == mapped.match(entity)

    @pytest.mark.parametrize("backend", ["numpy"])
    def test_mmap_per_backend(self, mini_pair, tmp_path, backend):
        assert get_backend().__name__ == f"repro.kernels.{backend}_backend"
        built = ResolutionIndex.build(mini_pair.kb2, MinoanERConfig())
        path = tmp_path / "kb2.idx"
        built.save(path)
        fresh = MatchEngine(built)
        mapped = MatchEngine(ResolutionIndex.load(path))
        for entity in list(mini_pair.kb1)[:25]:
            assert fresh.match(entity) == mapped.match(entity)
        assert fresh.match_batch(list(mini_pair.kb1)) == mapped.match_batch(
            list(mini_pair.kb1)
        )

    def test_mmap_resave_serves_identically(self, mini_pair, tmp_path):
        built = ResolutionIndex.build(mini_pair.kb2)
        first = tmp_path / "kb2.idx"
        built.save(first)
        second = tmp_path / "resaved.idx"
        ResolutionIndex.load(first).save(second)
        assert second.read_bytes() == first.read_bytes()
        reloaded = MatchEngine(ResolutionIndex.load(second))
        fresh = MatchEngine(built)
        for entity in list(mini_pair.kb1)[:25]:
            assert fresh.match(entity) == reloaded.match(entity)
