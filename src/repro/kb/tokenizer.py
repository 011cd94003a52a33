"""Schema-agnostic tokenisation of literal values.

The paper treats every description as a bag of tokens -- "single words in
attribute values" (section 1) -- handling numbers and dates the same way
as strings (footnote 4).  Tokens are produced by lower-casing and
splitting on any non-alphanumeric character.
"""

from __future__ import annotations

import re
from typing import Iterable

_TOKEN_PATTERN = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(value: str, min_length: int = 1) -> list[str]:
    """Split one literal value into lower-case alphanumeric tokens.

    Unicode letters and digits are kept (Web KBs are multilingual);
    everything else -- punctuation, symbols, underscores -- separates
    tokens.

    >>> tokenize("The Fat Duck, Bray (1995)")
    ['the', 'fat', 'duck', 'bray', '1995']
    >>> tokenize("Müller-Straße 42")
    ['müller', 'straße', '42']
    >>> tokenize("A-1 diner", min_length=2)
    ['diner']
    """
    tokens = _TOKEN_PATTERN.findall(value.lower())
    if min_length > 1:
        tokens = [t for t in tokens if len(t) >= min_length]
    return tokens


class Tokenizer:
    """Configurable tokenizer shared by blocking and similarity code.

    Parameters
    ----------
    min_length:
        Drop tokens shorter than this many characters.
    stopwords:
        Tokens to discard (lower-case).  The paper relies on Entity
        Frequency weighting rather than a stopword list, so the default
        is empty; the option exists for users with domain knowledge.

    The tokenizer is deliberately stateless per value so the same
    instance can be shared across KBs and threads.
    """

    __slots__ = ("min_length", "stopwords")

    def __init__(self, min_length: int = 1, stopwords: Iterable[str] = ()):
        if min_length < 1:
            raise ValueError(f"min_length must be >= 1, got {min_length}")
        self.min_length = min_length
        self.stopwords = frozenset(s.lower() for s in stopwords)

    def tokens(self, value: str) -> list[str]:
        """Tokens of a single literal value, in order of appearance."""
        tokens = tokenize(value, self.min_length)
        if self.stopwords:
            tokens = [t for t in tokens if t not in self.stopwords]
        return tokens

    def token_set(self, values: Iterable[str]) -> frozenset[str]:
        """Distinct tokens across several literal values.

        This is the ``tokens(e)`` set of Definition 2.1: the bag of
        words of a description collapsed to a set (each shared token
        contributes once to valueSim).  The values are tokenised as one
        space-joined string: a space is neither part of a token nor a
        cased or case-ignorable character, so neither a token nor the
        one context-dependent lower-casing (final sigma) crosses it, and
        the set is the union of :meth:`tokens` over the values.
        """
        return frozenset(self.tokens(" ".join(values)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tokenizer):
            return NotImplemented
        return (self.min_length, self.stopwords) == (other.min_length, other.stopwords)

    def __hash__(self) -> int:
        return hash((self.min_length, self.stopwords))

    def __repr__(self) -> str:
        return f"Tokenizer(min_length={self.min_length}, stopwords={len(self.stopwords)})"
