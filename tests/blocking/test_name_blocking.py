"""Unit tests for name blocking and name normalisation."""

import re

from hypothesis import example, given
from hypothesis import strategies as st

from repro.blocking.name_blocking import name_blocks, normalize_name
from repro.kb.entity import EntityDescription
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.statistics import KBStatistics


class TestNormalizeName:
    def test_lowercases_and_trims(self):
        assert normalize_name("  J. Lake ") == "j. lake"

    def test_collapses_internal_whitespace(self):
        assert normalize_name("John\t  Lake") == "john lake"

    def test_empty(self):
        assert normalize_name("   ") == ""


_REGEX_WHITESPACE = re.compile(r"\s+")

#: Whitespace beyond ASCII (the separators \x1c-\x1f, NEL, NBSP, the
#: line and paragraph separators, the ideographic space, ...), and two
#: look-alikes that are not whitespace (zero-width space, word joiner).
SPACES = "\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u200a\u2028\u2029\u202f\u3000 \t\n\r\x0b\x0c\u200b\u2060"


def regex_normalize(name: str) -> str:
    """The regex form of :func:`normalize_name`, kept as its oracle."""
    return _REGEX_WHITESPACE.sub(" ", name.strip().lower())


class TestNormalizeNameProperty:
    @given(st.text(st.one_of(st.sampled_from(SPACES), st.characters())))
    @example("\x1c J.\u3000\x85Lake\xa0\u2028")
    @example("\u0130 STANBUL\u200b")  # lower() lengthens the dotted I
    def test_equals_the_regex_form(self, name):
        assert normalize_name(name) == regex_normalize(name)


def stats_for(values: list[str], prefix: str) -> KBStatistics:
    kb = KnowledgeBase(
        [EntityDescription(f"{prefix}{i}", [("name", v)]) for i, v in enumerate(values)],
        name=prefix,
    )
    return KBStatistics(kb, top_k_name_attributes=1)


class TestNameBlocks:
    def test_shared_names_block_together(self):
        blocks = name_blocks(stats_for(["J. Lake"], "a"), stats_for(["j. lake"], "b"))
        assert len(blocks) == 1
        assert blocks[0].is_singleton_pair

    def test_unshared_names_make_no_blocks(self):
        blocks = name_blocks(stats_for(["alpha"], "a"), stats_for(["beta"], "b"))
        assert len(blocks) == 0

    def test_non_exclusive_name_not_singleton(self):
        blocks = name_blocks(
            stats_for(["same name", "same name"], "a"), stats_for(["same name"], "b")
        )
        assert len(blocks) == 1
        assert not blocks[0].is_singleton_pair

    def test_empty_names_ignored(self):
        blocks = name_blocks(stats_for(["  "], "a"), stats_for(["  "], "b"))
        assert len(blocks) == 0

    def test_entity_listed_once_per_block_despite_alias(self):
        kb1 = KnowledgeBase(
            [EntityDescription("a0", [("name", "X Y"), ("alias", "X Y")])], name="a"
        )
        kb2 = KnowledgeBase(
            [EntityDescription("b0", [("name", "x y"), ("alias", "x y")])], name="b"
        )
        stats1 = KBStatistics(kb1, top_k_name_attributes=2)
        stats2 = KBStatistics(kb2, top_k_name_attributes=2)
        blocks = name_blocks(stats1, stats2)
        assert len(blocks) == 1
        assert blocks[0].is_singleton_pair  # deduplicated within the entity

    def test_blocks_sorted_by_name(self):
        blocks = name_blocks(
            stats_for(["zz", "aa"], "a"), stats_for(["aa", "zz"], "b")
        )
        assert [b.key for b in blocks] == ["aa", "zz"]
