"""The one-entity profile in closed form against the KB statistics it replaces.

:func:`repro.kb.statistics.entity_profile` is what a single served query
uses instead of building ``KnowledgeBase([e])`` + ``KBStatistics``; it
must be that construction's n = 1 value exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kb.entity import EntityDescription
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.statistics import KBStatistics, entity_profile
from repro.kb.tokenizer import Tokenizer

URI = "http://q/self"

# Small alphabets, so attributes repeat, values collide and tokens fall
# under ``min_length`` or into the stopwords.
attributes = st.sampled_from(["a", "b", "label", "name", "Name", "z_1", "ä"])
values = st.one_of(
    st.just(URI),
    st.text(alphabet="ab xyZ-1é_.", max_size=12),
    st.sampled_from(["the fat duck", "A-1 diner", "x", "of the", "42"]),
)
tokenizers = st.sampled_from(
    [Tokenizer(), Tokenizer(min_length=2), Tokenizer(min_length=3, stopwords=["the", "of", "ab"])]
)


def kb_statistics_view(entity, tokenizer, k):
    kb = KnowledgeBase([entity], name="query", tokenizer=tokenizer)
    stats = KBStatistics(kb, top_k_name_attributes=k)
    return kb.tokens(0), stats.name_attributes, stats.names(0)


@settings(deadline=None)
@given(
    pairs=st.lists(st.tuples(attributes, values), max_size=10),
    tokenizer=tokenizers,
    k=st.integers(min_value=0, max_value=9),
)
def test_profile_equals_one_entity_kb_statistics(pairs, tokenizer, k):
    entity = EntityDescription(URI, pairs)
    profile = entity_profile(entity, tokenizer, k)
    assert tuple(profile) == kb_statistics_view(entity, tokenizer, k)


@pytest.mark.parametrize(
    "pairs, k",
    [
        ((), 2),  # no pairs
        ((("sameAs", URI), ("label", "Self Ref")), 2),  # a value naming the entity itself
        ((("b", "x y"), ("a", "z")), 0),  # k = 0: no names
        ((("b", "x y"), ("a", "z"), ("a", "w")), 7),  # k above the attribute count
    ],
)
def test_profile_edge_cases(pairs, k):
    entity = EntityDescription(URI, pairs)
    tokenizer = Tokenizer(min_length=2, stopwords=["ref"])
    assert tuple(entity_profile(entity, tokenizer, k)) == kb_statistics_view(entity, tokenizer, k)


def test_negative_k_is_refused_like_kb_statistics():
    with pytest.raises(ValueError):
        entity_profile(EntityDescription(URI), Tokenizer(), -1)
