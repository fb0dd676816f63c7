"""Aggregate queries over probabilistic instances.

Beyond the paper's boolean point queries, downstream users routinely ask
*count* and *value* aggregates: "how many authors does B1 have in
expectation?", "what is the distribution over the number of objects
satisfying p?", "what is P(val(o) = v and o is reached via p)?".  These
are all computable from the local interpretation without enumeration on
tree-structured instances.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

from repro.core.instance import ProbabilisticInstance
from repro.errors import QueryError
from repro.queries.chain import chain_probability
from repro.queries.point import point_query
from repro.semistructured.graph import Label, Oid
from repro.semistructured.paths import PathExpression, PathMatch, match_path
from repro.semistructured.types import Value


def child_count_distribution(
    pi: ProbabilisticInstance, oid: Oid, label: Label
) -> dict[int, float]:
    """``P(|lch(o, label)| = k | o exists)`` for each k with positive mass."""
    opf = pi.opf(oid)
    if opf is None:
        raise QueryError(f"object {oid!r} has no OPF (is it a leaf?)")
    pool = pi.weak.lch(oid, label)
    distribution: dict[int, float] = {}
    for child_set, probability in opf.support():
        count = len(child_set & pool)
        distribution[count] = distribution.get(count, 0.0) + probability
    return distribution


def expected_child_count(
    pi: ProbabilisticInstance, oid: Oid, label: Label, conditional: bool = True
) -> float:
    """``E[|lch(o, label)|]`` given the object exists (or unconditionally).

    With ``conditional=False`` the expectation is multiplied by the
    probability that ``o`` occurs at all (tree-structured instances).
    """
    expectation = sum(
        count * probability
        for count, probability in child_count_distribution(pi, oid, label).items()
    )
    if conditional:
        return expectation
    from repro.analysis import existence_probability

    return expectation * existence_probability(pi, oid)


def expected_match_count(
    pi: ProbabilisticInstance,
    path: PathExpression | str,
    match: PathMatch | None = None,
    parent_of: Mapping[Oid, Oid] | None = None,
) -> float:
    """``E[#objects satisfying p]`` — the sum of the point probabilities.

    Exact on trees by linearity of expectation; no enumeration (a
    non-tree raises, as :func:`~repro.queries.point.point_query` does).
    A precomputed ``match`` and ``parent_of`` map (from a tree-verified
    columnar snapshot) skip the structural locate step and the per-point
    tree check.  Summed with :func:`math.fsum`: the matched objects are
    a set, and the answer must not depend on its iteration order.
    """
    if isinstance(path, str):
        path = PathExpression.parse(path)
    if match is None:
        match = match_path(pi.weak.graph(), path)
    return math.fsum(
        point_query(pi, path, oid, parent_of) for oid in match.matched
    )


def match_count_distribution(
    pi: ProbabilisticInstance,
    path: PathExpression | str,
    match: PathMatch | None = None,
    assume_tree: bool = False,
) -> dict[int, float]:
    """The exact distribution of ``#objects satisfying p`` (trees).

    Computed bottom-up with per-branch count-generating convolutions —
    polynomial in the number of matched objects, never enumerating
    worlds.  A precomputed ``match`` skips the structural locate step;
    a caller that already holds a proof of tree shape (a columnar
    snapshot's, made when it was built) passes ``assume_tree=True`` to
    skip the O(V) check, as for
    :func:`~repro.algebra.projection_prob.epsilon_pass`.
    """
    if isinstance(path, str):
        path = PathExpression.parse(path)
    if not assume_tree:
        from repro.algebra.projection_prob import _require_tree

        _require_tree(pi)
    if match is None:
        match = match_path(pi.weak.graph(), path)
    if match.is_empty:
        return {0: 1.0}
    depth = len(match.levels) - 1
    if depth == 0:
        return {1: 1.0}

    # counts[o] = distribution of matched descendants given o exists.
    counts: dict[Oid, dict[int, float]] = {}
    for oid in match.levels[depth]:
        counts[oid] = {1: 1.0}
    for level in range(depth - 1, -1, -1):
        children_of: dict[Oid, list[Oid]] = {}
        for src, dst in match.level_edges[level]:
            if dst in counts:
                children_of.setdefault(src, []).append(dst)
        for oid in match.levels[level]:
            kept = children_of.get(oid, [])
            opf = pi.opf(oid)
            if opf is None:
                raise QueryError(f"non-leaf object {oid!r} has no OPF")
            dist: dict[int, float] = {}
            for child_set, p_children in opf.support():
                partial = {0: 1.0}
                for child in kept:
                    if child not in child_set:
                        continue
                    merged: dict[int, float] = {}
                    for left, lp in partial.items():
                        for right, rp in counts[child].items():
                            merged[left + right] = (
                                merged.get(left + right, 0.0) + lp * rp
                            )
                    partial = merged
                for total, probability in partial.items():
                    dist[total] = dist.get(total, 0.0) + p_children * probability
            counts[oid] = dist
    return counts.get(pi.root, {0: 1.0})


def value_point_query(
    pi: ProbabilisticInstance,
    path: PathExpression | str,
    oid: Oid,
    value: Value,
) -> float:
    """``P(o in p and val(o) = value)`` on a tree-structured instance."""
    if isinstance(path, str):
        path = PathExpression.parse(path)
    reach = point_query(pi, path, oid)
    if reach == 0.0:
        return 0.0
    vpf = pi.effective_vpf(oid)
    if vpf is None:
        raise QueryError(f"object {oid!r} carries no value distribution")
    return reach * vpf.prob(value)


def value_distribution_at(
    pi: ProbabilisticInstance, path: PathExpression | str, oid: Oid
) -> dict[Value, float]:
    """The (conditional) value distribution of ``o`` given it satisfies ``p``.

    Value choices are independent of structure given existence, so this
    is simply the VPF — exposed with the reach probability folded out for
    symmetry with :func:`value_point_query`.
    """
    vpf = pi.effective_vpf(oid)
    if vpf is None:
        raise QueryError(f"object {oid!r} carries no value distribution")
    if isinstance(path, str):
        path = PathExpression.parse(path)
    if point_query(pi, path, oid) == 0.0:
        raise QueryError(f"object {oid!r} never satisfies {path}")
    return dict(vpf.support())


def expected_chain_extensions(
    pi: ProbabilisticInstance, chain: list[Oid], label: Label
) -> float:
    """``E[#label-children of the chain's last object | chain exists]``
    times the chain probability — the expected number of ways the chain
    extends by one ``label`` edge."""
    probability = chain_probability(pi, chain)
    if probability == 0.0:
        return 0.0
    return probability * expected_child_count(pi, chain[-1], label)
