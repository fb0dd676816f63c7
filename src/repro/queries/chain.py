"""Simple object chain probability (Section 6.2, first formula).

The probability that the chain ``r.o1.o2...on`` exists is the nested sum

    P(c) = sum_{c1 in PC(r), o1 in c1} p(r)(c1)
           * sum_{c2 in PC(o1), o2 in c2} p(o1)(c2)
           * ...

which, object by object, is the product of the marginal inclusion
probabilities ``P(o_{i+1} in children(o_i) | o_i exists)``.  This is exact
when the weak instance graph is a tree (each ``o_i`` has a single parent
chain, so the inclusion events at different levels are independent).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.instance import ProbabilisticInstance
from repro.errors import QueryError
from repro.index.columnar import ColumnarInstance
from repro.semistructured.graph import Oid


def chain_probability(
    pi: ProbabilisticInstance,
    chain: Sequence[Oid],
    snapshot: ColumnarInstance | None = None,
) -> float:
    """``P(r.o1...on)`` for an explicit object chain starting at the root.

    Args:
        pi: the probabilistic instance (tree-structured for exactness).
        chain: the object ids, beginning with the instance root.
        snapshot: ``pi``'s columnar snapshot; a chain that follows its
            ``parent`` column is the root chain of its last object, whose
            product the snapshot memoises.

    Returns:
        The probability that each ``o_{i+1}`` is a child of ``o_i`` in a
        compatible world.  Zero when some link is not even potential.
    """
    if not chain:
        raise QueryError("a chain needs at least the root object")
    if chain[0] != pi.root:
        raise QueryError(
            f"chain must start at the root {pi.root!r}, got {chain[0]!r}"
        )
    if snapshot is not None:
        index_of, up_of = snapshot.index_of, snapshot.parent
        if all(
            child in index_of and up_of[index_of[child]] == index_of[up]
            for up, child in zip(chain, chain[1:])
        ):
            return snapshot.reach(pi, chain[-1])
    probability = 1.0
    for parent, child in zip(chain, chain[1:]):
        if parent not in pi or child not in pi:
            return 0.0
        opf = pi.opf(parent)
        if opf is None:
            return 0.0
        probability *= opf.marginal_inclusion(child)
        if probability == 0.0:
            return 0.0
    return probability
