"""KB statistics: relation importance, name attributes, top neighbors.

Implements Definitions 2.2-2.4 of the paper plus the "Entity Names"
machinery of section 2.2 and the ``getTopInNeighbors`` procedure of
Algorithm 1:

* **support** of a relation ``p``: ``|instances(p)| / |E|^2`` -- how many
  entity pairs ``p`` connects, relative to all possible pairs;
* **discriminability**: ``|objects(p)| / |instances(p)|`` -- how many
  distinct targets ``p`` points to, relative to its usage;
* **importance**: harmonic mean of the two;
* **name attributes**: the global top-k *literal* attributes by
  importance, where support is ``|subjects(p)| / |E|`` (section 2.2);
  their values act as entity names;
* **top-N relations / neighbors** per entity: the entity's relations
  ranked by the KB-global importance order, and the neighbors reached
  through them;
* **top in-neighbors**: the reverse of top-N neighbors, used to
  propagate value similarity into neighbor similarity (Algorithm 1,
  lines 44-47);
* the **one-entity profile** (:func:`entity_profile`): the tokens, name
  attributes and names the above give a KB of a single entity, in
  closed form -- what a single served query needs.

All statistics are derived once per KB and cached on a
:class:`KBStatistics` instance; they require no schema knowledge and no
supervision.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import chain
from operator import itemgetter
from typing import Mapping, NamedTuple

import numpy as np

from repro.kb.entity import EntityDescription
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.tokenizer import Tokenizer


def _relation_statistics(kb: KnowledgeBase) -> tuple[dict[str, float], dict[str, float]]:
    """Support and discriminability of every relation, from one walk.

    The walk codes every relation pair ``(p, target)`` of entity ``s``
    as the edge ``p * |E| + target``; ``|instances(p)|`` counts the
    distinct ``(s, edge)`` pairs of ``p`` and ``|objects(p)|`` its
    distinct edges.  Both ratios are integer counts over one division,
    keyed in first-occurrence order of the relations.
    """
    n = len(kb)
    relations = [kb.relations(eid) for eid in range(n)]
    pairs = list(chain.from_iterable(relations))
    if not pairs:
        return {}, {}
    names = list(map(itemgetter(0), pairs))
    code = {p: i for i, p in enumerate(dict.fromkeys(names))}
    edges = np.fromiter(map(code.__getitem__, names), np.int64, len(pairs)) * n
    edges += np.fromiter(map(itemgetter(1), pairs), np.int64, len(pairs))
    span = len(code) * n
    # (s, edge) packs as s * span + edge: python ints where int64 is too narrow.
    width = np.int64 if (n * span).bit_length() <= 63 else object
    subjects = np.repeat(np.arange(n, dtype=np.int64), list(map(len, relations)))
    keys = subjects.astype(width) * span + edges.astype(width)
    instances = _distinct_per_relation(keys, span, n, len(code))
    objects = _distinct_per_relation(edges, span, n, len(code))
    denominator = float(n) ** 2
    support = {p: int(instances[i]) / denominator for p, i in code.items()}
    discriminability = {p: int(objects[i]) / int(instances[i]) for p, i in code.items()}
    return support, discriminability


def _distinct_per_relation(keys, span: int, n: int, relations: int):
    """Per relation, how many distinct values ``keys`` holds; a key's
    relation is ``key % span // n``.  Sorts ``keys`` in place."""
    keys.sort()
    distinct = np.ones(len(keys), bool)
    np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    return np.bincount((keys[distinct] % span // n).astype(np.int64), minlength=relations)


def relation_support(kb: KnowledgeBase) -> dict[str, float]:
    """Support of every relation in ``kb`` (Definition 2.2).

    ``support(p) = |instances(p)| / |E|^2`` where ``instances(p)`` is the
    set of (subject, object) entity pairs connected by ``p``.
    """
    return _relation_statistics(kb)[0]


def relation_discriminability(kb: KnowledgeBase) -> dict[str, float]:
    """Discriminability of every relation in ``kb`` (Definition 2.3).

    ``discriminability(p) = |objects(p)| / |instances(p)|``.
    """
    return _relation_statistics(kb)[1]


def _harmonic_mean(a: float, b: float) -> float:
    if a + b == 0.0:
        return 0.0
    return 2.0 * a * b / (a + b)


def relation_importance(kb: KnowledgeBase) -> dict[str, float]:
    """Importance of every relation (Definition 2.4): harmonic mean of
    support and discriminability."""
    support, discriminability = _relation_statistics(kb)
    return {p: _harmonic_mean(support[p], discriminability[p]) for p in support}


def attribute_importance(kb: KnowledgeBase) -> dict[str, float]:
    """Importance of every *literal* attribute, for name discovery.

    Section 2.2 ("Entity Names"): support of an attribute is
    ``|subjects(p)| / |E|`` -- the fraction of entities carrying it --
    and discriminability is the fraction of its values that are
    distinct.  Attributes that are both widespread and near-unique-valued
    (e.g. ``rdfs:label``) score highest and act as entity names.
    """
    if len(kb) == 0:
        return {}
    subjects: dict[str, set[int]] = defaultdict(set)
    instances: Counter[str] = Counter()
    distinct_values: dict[str, set[str]] = defaultdict(set)
    relation_names = kb.relation_names()
    for eid, entity in enumerate(kb.entities):
        for attribute, value in entity.pairs:
            if attribute in relation_names:
                continue
            subjects[attribute].add(eid)
            instances[attribute] += 1
            distinct_values[attribute].add(value)
    importance: dict[str, float] = {}
    for attribute in instances:
        support = len(subjects[attribute]) / len(kb)
        discriminability = len(distinct_values[attribute]) / instances[attribute]
        importance[attribute] = _harmonic_mean(support, discriminability)
    return importance


class EntityProfile(NamedTuple):
    """What a one-entity KB's statistics say about its entity."""

    tokens: frozenset[str]
    name_attributes: tuple[str, ...]
    names: tuple[str, ...]


def entity_profile(entity: EntityDescription, tokenizer: Tokenizer, k: int) -> EntityProfile:
    """``KnowledgeBase([entity])`` + :class:`KBStatistics`, in closed form.

    In a KB of one entity no value names another entity (a value equal
    to the entity's own URI stays a literal), so ``tokens(e)`` is the
    token set of all its values.  Every attribute has support 1 (the one
    entity carries it) and discriminability 1 (its pairs are distinct),
    so all importances tie and the name attributes are the ``k``
    alphabetically smallest; the names are their values, attribute by
    attribute in pair order -- ``KBStatistics.names(0)``.
    """
    if k < 0:
        raise ValueError("top_k_name_attributes must be >= 0")
    name_attributes = tuple(sorted({attribute for attribute, _ in entity.pairs})[:k])
    return EntityProfile(
        tokenizer.token_set(value for _, value in entity.pairs),
        name_attributes,
        tuple(value for attribute in name_attributes for value in entity.values_of(attribute)),
    )


class KBStatistics:
    """Cached per-KB statistics backing blocking and matching.

    Parameters
    ----------
    kb:
        The knowledge base to profile.
    top_k_name_attributes:
        ``k``: how many globally most-important literal attributes act
        as name attributes (paper default 2).
    top_n_relations:
        ``N``: how many locally most-important relations define an
        entity's top neighbors (paper default 3).
    """

    def __init__(self, kb: KnowledgeBase, top_k_name_attributes: int = 2, top_n_relations: int = 3):
        if top_k_name_attributes < 0:
            raise ValueError("top_k_name_attributes must be >= 0")
        if top_n_relations < 0:
            raise ValueError("top_n_relations must be >= 0")
        self.kb = kb
        self.k = top_k_name_attributes
        self.n = top_n_relations
        self.relation_importance: dict[str, float] = relation_importance(kb)
        self.attribute_importance: dict[str, float] = attribute_importance(kb)
        self.name_attributes: tuple[str, ...] = self._pick_name_attributes()
        self._top_neighbors: list[tuple[int, ...]] = self._compute_top_neighbors()
        self._top_in_neighbors: list[tuple[int, ...]] | None = None
        self._in_neighbor_csr = None

    # ------------------------------------------------------------------
    # Names
    # ------------------------------------------------------------------
    def _pick_name_attributes(self) -> tuple[str, ...]:
        ranked = sorted(
            self.attribute_importance.items(),
            key=lambda item: (-item[1], item[0]),
        )
        return tuple(attribute for attribute, _ in ranked[: self.k])

    def names(self, eid: int) -> tuple[str, ...]:
        """Name values of entity ``eid``: its literal values under the
        global top-k name attributes (function ``name(e_i)``)."""
        entity = self.kb.entities[eid]
        out: list[str] = []
        for attribute in self.name_attributes:
            out.extend(entity.values_of(attribute))
        return tuple(out)

    # ------------------------------------------------------------------
    # Top-N relations and neighbors (section 2.2, Algorithm 1 lines 36-43)
    # ------------------------------------------------------------------
    def top_relations(self, eid: int) -> tuple[str, ...]:
        """The entity's N relations with maximum KB-global importance."""
        local = {attribute for attribute, _ in self.kb.relations(eid)}
        ranked = sorted(local, key=lambda p: (-self.relation_importance.get(p, 0.0), p))
        return tuple(ranked[: self.n])

    def _compute_top_neighbors(self) -> list[tuple[int, ...]]:
        out: list[tuple[int, ...]] = []
        for eid in range(len(self.kb)):
            top = set(self.top_relations(eid))
            seen: dict[int, None] = {}
            for attribute, target in self.kb.relations(eid):
                if attribute in top:
                    seen[target] = None
            out.append(tuple(seen))
        return out

    def top_neighbors(self, eid: int) -> tuple[int, ...]:
        """``topNneighbors(e)``: neighbors linked via the top-N relations."""
        return self._top_neighbors[eid]

    def _ensure_top_in_neighbors(self) -> list[tuple[int, ...]]:
        if self._top_in_neighbors is None:
            reverse: list[list[int]] = [[] for _ in range(len(self.kb))]
            for source, targets in enumerate(self._top_neighbors):
                for target in targets:
                    reverse[target].append(source)
            self._top_in_neighbors = [tuple(sources) for sources in reverse]
        return self._top_in_neighbors

    def top_in_neighbors(self, eid: int) -> tuple[int, ...]:
        """Entities that have ``eid`` among their top-N neighbors.

        This is the reverse mapping computed by ``getTopInNeighbors``
        (Algorithm 1, lines 44-47): when a pair of entities has high
        value similarity, that evidence is propagated to the pairs of
        their *in*-neighbors.
        """
        return self._ensure_top_in_neighbors()[eid]

    def in_neighbor_csr(self):
        """The ``top_in_neighbors`` map as a flat CSR adjacency.

        Cached; row ``eid`` lists the same sources, in the same order,
        as :meth:`top_in_neighbors`.  This is the layout consumed by
        the array kernels (:mod:`repro.kernels`) for ``gamma``
        propagation.
        """
        if self._in_neighbor_csr is None:
            from repro.kernels.interning import CSRAdjacency

            self._in_neighbor_csr = CSRAdjacency.from_lists(self._ensure_top_in_neighbors())
        return self._in_neighbor_csr

    def __repr__(self) -> str:
        return (
            f"KBStatistics({self.kb.name!r}, k={self.k}, n={self.n}, "
            f"names={list(self.name_attributes)!r})"
        )


def describe(statistics: Mapping[str, float], top: int = 10) -> str:
    """Human-readable top entries of a statistics mapping (debug helper)."""
    ranked = sorted(statistics.items(), key=lambda item: (-item[1], item[0]))[:top]
    return "\n".join(f"{value:10.6f}  {key}" for key, value in ranked)
