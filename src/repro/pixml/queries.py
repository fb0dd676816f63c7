"""Interval queries on interval probabilistic instances.

The interval analogues of Section 6.2's queries: a chain exists with a
probability *interval* obtained by multiplying the per-link marginal
inclusion intervals (exact for tree-structured instances, where the link
events are independent); a point query bounds ``P(o in p)`` the same
way; and an existential query propagates intervals through the Section
6.1 epsilon recursion — every operation involved (products, one-minus,
complements) is monotone in the inputs, so interval endpoints propagate
soundly.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import QueryError
from repro.pixml.intervals import ProbInterval
from repro.pixml.ipf import IntervalProbabilisticInstance
from repro.semistructured.graph import Oid
from repro.semistructured.paths import PathExpression, match_path


def interval_chain_probability(
    instance: IntervalProbabilisticInstance, chain: Sequence[Oid]
) -> ProbInterval:
    """The probability interval of the chain ``r.o1...on``."""
    if not chain:
        raise QueryError("a chain needs at least the root object")
    if chain[0] != instance.root:
        raise QueryError(
            f"chain must start at the root {instance.root!r}, got {chain[0]!r}"
        )
    result = ProbInterval.point(1.0)
    for parent, child in zip(chain, chain[1:]):
        iopf = instance.iopf(parent)
        if iopf is None:
            return ProbInterval.point(0.0)
        result = result.product(iopf.marginal_inclusion(child))
    return result


def interval_point_query(
    instance: IntervalProbabilisticInstance,
    path: PathExpression | str,
    oid: Oid,
) -> ProbInterval:
    """The interval of ``P(o in p)`` on a tree-structured instance."""
    if isinstance(path, str):
        path = PathExpression.parse(path)
    if not instance.weak.is_tree():
        raise QueryError("interval point queries require a tree-structured instance")
    graph = instance.weak.graph()
    if oid not in graph:
        return ProbInterval.point(0.0)
    chain = [oid]
    current = oid
    for label in reversed(path.labels):
        parents = graph.parents(current)
        if not parents:
            return ProbInterval.point(0.0)
        (parent,) = parents
        if graph.label(parent, current) != label:
            return ProbInterval.point(0.0)
        chain.append(parent)
        current = parent
    if current != instance.root:
        return ProbInterval.point(0.0)
    chain.reverse()
    return interval_chain_probability(instance, chain)


def interval_existential_query(
    instance: IntervalProbabilisticInstance, path: PathExpression | str
) -> ProbInterval:
    """The interval of ``P(exists o: o in p)`` on a tree.

    Runs the epsilon recursion of Section 6.1 with interval arithmetic:
    a child set ``c`` survives through ``prod_{j in c ∩ kept} eps_j``
    terms and the root's survival interval is the answer.  Per object we
    compute ``eps_o`` by summing, over the interval OPF's entries, the
    entry interval times the probability that at least one kept child in
    it survives (bounded with the independent-branch formula, exact on
    trees for point inputs).
    """
    if isinstance(path, str):
        path = PathExpression.parse(path)
    if not instance.weak.is_tree():
        raise QueryError("interval existential queries require a tree")
    match = match_path(instance.weak.graph(), path)
    if match.is_empty:
        return ProbInterval.point(0.0)
    depth = len(match.levels) - 1
    if depth == 0:
        return ProbInterval.point(1.0)

    epsilon: dict[Oid, ProbInterval] = {
        oid: ProbInterval.point(1.0) for oid in match.levels[depth]
    }
    for level in range(depth - 1, -1, -1):
        children_of: dict[Oid, list[Oid]] = {}
        for src, dst in match.level_edges[level]:
            if dst in epsilon:
                children_of.setdefault(src, []).append(dst)
        for oid in match.levels[level]:
            kept = children_of.get(oid, [])
            iopf = instance.iopf(oid)
            if iopf is None:
                raise QueryError(f"non-leaf object {oid!r} has no interval OPF")
            survive = ProbInterval.point(0.0)
            for child_set, entry in iopf.support():
                relevant = [epsilon[c] for c in kept if c in child_set]
                if not relevant:
                    continue
                none_survive = ProbInterval.point(1.0)
                for eps in relevant:
                    none_survive = none_survive.product(eps.complement())
                survive = survive.add(entry.product(none_survive.complement()))
            epsilon[oid] = ProbInterval(min(survive.lo, 1.0), min(survive.hi, 1.0))
    return epsilon.get(instance.root, ProbInterval.point(0.0))
