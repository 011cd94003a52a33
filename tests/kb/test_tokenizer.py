"""Unit tests for the schema-agnostic tokenizer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kb.tokenizer import Tokenizer, tokenize


class TestTokenize:
    def test_lowercases(self):
        assert tokenize("The Fat DUCK") == ["the", "fat", "duck"]

    def test_splits_on_punctuation(self):
        assert tokenize("Bray, Berkshire (UK)") == ["bray", "berkshire", "uk"]

    def test_numbers_treated_as_strings(self):
        assert tokenize("founded 1995") == ["founded", "1995"]

    def test_mixed_alphanumerics_stay_together(self):
        assert tokenize("A-1 route66") == ["a", "1", "route66"]

    def test_empty_value(self):
        assert tokenize("") == []

    def test_only_punctuation(self):
        assert tokenize("!!! --- ???") == []

    def test_min_length_filter(self):
        assert tokenize("a bb ccc", min_length=2) == ["bb", "ccc"]

    def test_unicode_letters_kept(self):
        assert tokenize("Müller-Straße") == ["müller", "straße"]

    def test_cyrillic_and_greek(self):
        assert tokenize("Ηράκλειο Κρήτη") == ["ηράκλειο", "κρήτη"]

    def test_underscore_separates(self):
        assert tokenize("snake_case_token") == ["snake", "case", "token"]


class TestTokenizer:
    def test_default_keeps_everything(self):
        assert Tokenizer().tokens("a bb") == ["a", "bb"]

    def test_stopwords_removed_case_insensitively(self):
        tokenizer = Tokenizer(stopwords=["THE", "of"])
        assert tokenizer.tokens("The duck of Bray") == ["duck", "bray"]

    def test_min_length_validation(self):
        with pytest.raises(ValueError):
            Tokenizer(min_length=0)

    def test_token_set_unions_values(self):
        tokenizer = Tokenizer()
        tokens = tokenizer.token_set(["fat duck", "duck bray"])
        assert tokens == {"fat", "duck", "bray"}

    def test_token_set_is_frozenset(self):
        assert isinstance(Tokenizer().token_set(["x"]), frozenset)

    def test_equality_and_hash(self):
        assert Tokenizer(2, ["a"]) == Tokenizer(2, ["a"])
        assert hash(Tokenizer(2, ["a"])) == hash(Tokenizer(2, ["a"]))
        assert Tokenizer(1) != Tokenizer(2)


class TestProperties:
    @given(value=st.text(max_size=60))
    def test_tokens_are_lowercase_alphanumeric(self, value):
        for token in tokenize(value):
            assert token
            assert token == token.lower()
            assert token.isalnum()

    @given(value=st.text(max_size=60))
    def test_tokenize_is_idempotent_on_joined_output(self, value):
        tokens = tokenize(value)
        assert tokenize(" ".join(tokens)) == tokens

    @given(
        # Arbitrary text, and text dense in the one context-dependent
        # lower-casing (capital sigma next to case-ignorable marks).
        values=st.lists(
            st.one_of(st.text(max_size=20), st.text(alphabet="aΣσςΑ'´.- _1É", max_size=8)),
            max_size=6,
        ),
        min_length=st.integers(min_value=1, max_value=3),
    )
    def test_token_set_matches_union_of_tokens(self, values, min_length):
        tokenizer = Tokenizer(min_length=min_length, stopwords=["aa", "σς"])
        expected = set()
        for value in values:
            expected.update(tokenizer.tokens(value))
        assert tokenizer.token_set(values) == expected
        assert tokenizer.token_set(iter(values)) == expected


def test_final_sigma_is_decided_per_value():
    # "ΑΣ" alone lower-cases to "ας"; joined to a following word it must
    # not become "ασ".
    assert Tokenizer().token_set(["ΑΣ", "Β"]) == {"ας", "β"}
    assert Tokenizer().token_set(["ΑΣ'", "'Σ"]) == {"ας", "σ"}
