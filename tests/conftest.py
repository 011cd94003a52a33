"""Shared fixtures: hand-built KBs and a small synthetic benchmark pair."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.datasets.generator import ProfileSpec, generate_kb_pair
from repro.kb.entity import EntityDescription
from repro.kb.knowledge_base import KnowledgeBase

settings.register_profile("deep", max_examples=1000, deadline=None)
"""``--hypothesis-profile deep``: ten times the default example count,
for the properties that leave ``max_examples`` to the profile (the
array matcher against its per-node oracle).  Tier-1 runs the default
profile."""


@pytest.fixture
def restaurant_kbs() -> tuple[KnowledgeBase, KnowledgeBase]:
    """The running example of the paper's Figure 1 (Wikidata vs DBpedia).

    KB1 (Wikidata-flavoured): Restaurant1 -> John Lake A / Bray / UK.
    KB2 (DBpedia-flavoured): Restaurant2 -> Jonny Lake / Berkshire.
    """
    kb1 = KnowledgeBase(
        [
            EntityDescription(
                "wd:Restaurant1",
                [
                    ("label", "The Fat Duck"),
                    ("hasChef", "wd:JohnLakeA"),
                    ("territorial", "wd:Bray"),
                    ("inCountry", "wd:UK"),
                ],
            ),
            EntityDescription(
                "wd:JohnLakeA",
                [("label", "John Lake A"), ("name", "J. Lake")],
            ),
            EntityDescription(
                "wd:Bray",
                [("label", "Bray Berkshire village"), ("inCountry", "wd:UK")],
            ),
            EntityDescription("wd:UK", [("label", "United Kingdom")]),
        ],
        name="wikidata",
    )
    kb2 = KnowledgeBase(
        [
            EntityDescription(
                "db:Restaurant2",
                [
                    ("title", "Fat Duck restaurant"),
                    ("headChef", "db:JonnyLake"),
                    ("county", "db:Berkshire"),
                ],
            ),
            EntityDescription(
                "db:JonnyLake",
                [("title", "Jonny Lake"), ("alias", "J. Lake")],
            ),
            EntityDescription(
                "db:Berkshire",
                [("title", "Berkshire county Bray")],
            ),
        ],
        name="dbpedia",
    )
    return kb1, kb2


@pytest.fixture(scope="session")
def mini_pair():
    """A small but realistic synthetic clean-clean task (fast to solve)."""
    spec = ProfileSpec(
        name="mini",
        seed=99,
        n_matches=60,
        extras1=15,
        extras2=40,
        core_tokens=8,
        shared_fraction1=0.9,
        shared_fraction2=0.9,
        medium_vocab=400,
        name_overlap=0.8,
        relation_types=2,
        out_degree=2.0,
    )
    return generate_kb_pair(spec)


@pytest.fixture(scope="session")
def hard_pair():
    """A synthetic task with distractors and franchises (nearly similar)."""
    spec = ProfileSpec(
        name="mini-hard",
        seed=100,
        n_matches=120,
        extras1=40,
        extras2=160,
        core_tokens=6,
        shared_fraction1=0.65,
        shared_fraction2=0.65,
        medium_vocab=400,
        name_overlap=0.7,
        distractor_rate=0.6,
        distractor_steal_name=0.8,
        franchise_rate=0.4,
        franchise_size=3,
        relation_types=3,
        out_degree=2.5,
        junk_coverage=0.3,
    )
    return generate_kb_pair(spec)
