"""Name blocking (section 3.1): one block per shared entity name.

Entity names are the literal values of each KB's top-k most important
attributes (discovered from statistics, no schema alignment -- see
:class:`repro.kb.statistics.KBStatistics`).  A block is created for
every normalised name value used in both KBs.  Blocks containing exactly
one entity per KB ("they, and only they, have the same name") later
yield ``alpha = 1`` edges and drive matching rule R1.
"""

from __future__ import annotations

from collections import defaultdict

from repro.blocking.base import Block, BlockCollection
from repro.kb.statistics import KBStatistics


def normalize_name(name: str) -> str:
    """Case-fold and collapse whitespace so near-identical names block together.

    Whitespace is what ``str.split`` splits on, the same class as the
    ``\\s`` of a ``re`` pattern over ``str``.

    >>> normalize_name("  J.  Lake ")
    'j. lake'
    """
    return " ".join(name.lower().split())


def name_blocks(stats1: KBStatistics, stats2: KBStatistics) -> BlockCollection:
    """Build the name block collection ``B_N`` for a clean-clean pair.

    ``stats1``/``stats2`` determine which attributes act as names in each
    KB.  Empty names (whitespace-only values) are ignored.  Blocks are
    emitted in sorted name order for determinism.
    """
    index1: dict[str, list[int]] = defaultdict(list)
    index2: dict[str, list[int]] = defaultdict(list)
    for index, stats in ((index1, stats1), (index2, stats2)):
        for eid in range(len(stats.kb)):
            seen: set[str] = set()
            for raw in stats.names(eid):
                name = normalize_name(raw)
                if name and name not in seen:
                    seen.add(name)
                    index[name].append(eid)
    shared = sorted(set(index1) & set(index2))
    collection = BlockCollection(kind="name")
    for name in shared:
        collection.add(Block(name, index1[name], index2[name]))
    return collection
