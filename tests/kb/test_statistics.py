"""Unit tests for relation/attribute statistics and name discovery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kb.entity import EntityDescription
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.statistics import (
    KBStatistics,
    attribute_importance,
    relation_discriminability,
    relation_importance,
    relation_support,
)


def graph_kb() -> KnowledgeBase:
    """4 entities; 'good' relation has 3 distinct targets, 'hub' points to e0."""
    return KnowledgeBase(
        [
            EntityDescription("e0", [("name", "zero")]),
            EntityDescription("e1", [("name", "one"), ("good", "e2"), ("hub", "e0")]),
            EntityDescription("e2", [("name", "two"), ("good", "e3"), ("hub", "e0")]),
            EntityDescription("e3", [("name", "three"), ("good", "e1"), ("hub", "e0")]),
        ]
    )


class TestRelationStatistics:
    def test_support_definition(self):
        support = relation_support(graph_kb())
        # 3 instances each over |E|^2 = 16
        assert support["good"] == pytest.approx(3 / 16)
        assert support["hub"] == pytest.approx(3 / 16)

    def test_discriminability_definition(self):
        discriminability = relation_discriminability(graph_kb())
        assert discriminability["good"] == pytest.approx(1.0)  # 3 objects / 3 instances
        assert discriminability["hub"] == pytest.approx(1 / 3)  # 1 object / 3 instances

    def test_importance_is_harmonic_mean(self):
        kb = graph_kb()
        support = relation_support(kb)["good"]
        discriminability = relation_discriminability(kb)["good"]
        expected = 2 * support * discriminability / (support + discriminability)
        assert relation_importance(kb)["good"] == pytest.approx(expected)

    def test_importance_ranks_discriminative_relation_higher(self):
        importance = relation_importance(graph_kb())
        assert importance["good"] > importance["hub"]

    def test_duplicate_edges_counted_once(self):
        kb = KnowledgeBase(
            [
                EntityDescription("a", [("r", "b"), ("r", "b")]),
                EntityDescription("b"),
            ]
        )
        assert relation_support(kb)["r"] == pytest.approx(1 / 4)

    def test_empty_kb(self):
        assert relation_support(KnowledgeBase([])) == {}
        assert relation_importance(KnowledgeBase([])) == {}


class TestAttributeImportance:
    def test_prefers_universal_distinct_attribute(self):
        kb = KnowledgeBase(
            [
                EntityDescription("a", [("name", "alpha"), ("type", "x")]),
                EntityDescription("b", [("name", "beta"), ("type", "x")]),
                EntityDescription("c", [("name", "gamma"), ("type", "x")]),
            ]
        )
        importance = attribute_importance(kb)
        assert importance["name"] > importance["type"]
        assert importance["name"] == pytest.approx(1.0)

    def test_relations_excluded(self):
        kb = KnowledgeBase(
            [
                EntityDescription("a", [("rel", "b"), ("name", "alpha")]),
                EntityDescription("b", [("name", "beta")]),
            ]
        )
        assert "rel" not in attribute_importance(kb)

    def test_partial_coverage_lowers_support(self):
        kb = KnowledgeBase(
            [
                EntityDescription("a", [("name", "alpha"), ("alias", "alpha")]),
                EntityDescription("b", [("name", "beta")]),
            ]
        )
        importance = attribute_importance(kb)
        assert importance["alias"] < importance["name"]


class TestKBStatistics:
    def test_name_attributes_top_k(self):
        kb = KnowledgeBase(
            [
                EntityDescription("a", [("name", "alpha"), ("alias", "aka-a"), ("junk", "x")]),
                EntityDescription("b", [("name", "beta"), ("alias", "aka-b"), ("junk", "x")]),
            ]
        )
        stats = KBStatistics(kb, top_k_name_attributes=2)
        assert set(stats.name_attributes) == {"name", "alias"}

    def test_names_returns_values_of_name_attributes(self):
        kb = KnowledgeBase(
            [
                EntityDescription("a", [("name", "alpha"), ("other", "o1 o2 o3")]),
                EntityDescription("b", [("name", "beta"), ("other", "o4 o5 o6")]),
            ]
        )
        stats = KBStatistics(kb, top_k_name_attributes=1)
        assert stats.names(0) == ("alpha",)

    def test_top_relations_follow_global_importance(self):
        stats = KBStatistics(graph_kb(), top_n_relations=1)
        assert stats.top_relations(1) == ("good",)

    def test_top_neighbors_restricted_to_top_relations(self):
        stats = KBStatistics(graph_kb(), top_n_relations=1)
        assert stats.top_neighbors(1) == (2,)

    def test_top_neighbors_with_large_n_include_all(self):
        stats = KBStatistics(graph_kb(), top_n_relations=5)
        assert set(stats.top_neighbors(1)) == {2, 0}

    def test_in_neighbors_are_reverse_of_top_neighbors(self):
        stats = KBStatistics(graph_kb(), top_n_relations=5)
        for eid in range(len(stats.kb)):
            for neighbor in stats.top_neighbors(eid):
                assert eid in stats.top_in_neighbors(neighbor)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            KBStatistics(graph_kb(), top_k_name_attributes=-1)
        with pytest.raises(ValueError):
            KBStatistics(graph_kb(), top_n_relations=-1)

    def test_zero_k_means_no_names(self):
        stats = KBStatistics(graph_kb(), top_k_name_attributes=0)
        assert stats.name_attributes == ()
        assert stats.names(0) == ()


@st.composite
def random_kb(draw):
    size = draw(st.integers(min_value=1, max_value=8))
    entities = []
    for index in range(size):
        pairs = [("name", f"value{draw(st.integers(0, 9))}")]
        for _ in range(draw(st.integers(0, 3))):
            target = draw(st.integers(0, size - 1))
            relation = draw(st.sampled_from(["r1", "r2"]))
            pairs.append((relation, f"e{target}"))
        entities.append(EntityDescription(f"e{index}", pairs))
    return KnowledgeBase(entities)


class TestStatisticsProperties:
    @given(kb=random_kb())
    @settings(max_examples=40)
    def test_support_and_discriminability_in_unit_interval(self, kb):
        for mapping in (relation_support(kb), relation_discriminability(kb)):
            for value in mapping.values():
                assert 0.0 < value <= 1.0

    @given(kb=random_kb())
    @settings(max_examples=40)
    def test_in_neighbor_reverse_property(self, kb):
        stats = KBStatistics(kb, top_n_relations=2)
        reverse_pairs = {
            (source, target)
            for target in range(len(kb))
            for source in stats.top_in_neighbors(target)
        }
        forward_pairs = {
            (source, target)
            for source in range(len(kb))
            for target in stats.top_neighbors(source)
        }
        assert reverse_pairs == forward_pairs

    @given(kb=random_kb())
    @settings(deadline=None)
    def test_one_walk_equals_the_two_definitions_bit_for_bit(self, kb):
        # Definitions 2.2 and 2.3 as two separate walks over the
        # deduplicated relation pairs.
        instances, objects = {}, {}
        for eid in range(len(kb)):
            for attribute, target in set(kb.relations(eid)):
                instances[attribute] = instances.get(attribute, 0) + 1
                objects.setdefault(attribute, set()).add(target)
        support = {p: count / float(len(kb)) ** 2 for p, count in instances.items()}
        discriminability = {p: len(objects[p]) / count for p, count in instances.items()}
        assert relation_support(kb) == support
        assert relation_discriminability(kb) == discriminability
        importance = relation_importance(kb)
        assert set(importance) == set(support)
        for p, value in importance.items():
            s, d = support[p], discriminability[p]
            assert value == 2.0 * s * d / (s + d)
