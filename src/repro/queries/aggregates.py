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

from repro.algebra.projection_prob import _locate
from repro.core.compact import IndependentOPF, NonEmptyIndependentOPF
from repro.core.instance import ProbabilisticInstance
from repro.errors import QueryError
from repro.index.columnar import ColumnarInstance
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
    snapshot: ColumnarInstance | None = None,
) -> float:
    """``E[#objects satisfying p]`` — the sum of the point probabilities.

    Exact on trees by linearity of expectation; no enumeration (a
    non-tree raises, as :func:`~repro.queries.point.point_query` does).
    With ``pi``'s tree-verified columnar ``snapshot`` each term is the
    matched object's memoised :meth:`~repro.index.columnar.
    ColumnarInstance.reach` — an object on the match satisfies the
    path, so nothing is left to validate.  Summed with
    :func:`math.fsum`: the matched objects are a set, and the answer
    must not depend on its iteration order.
    """
    if isinstance(path, str):
        path = PathExpression.parse(path)
    if path.root != pi.root:
        return 0.0    # no chain from the instance root satisfies the path
    if match is None:
        match = match_path(pi.weak.graph(), path)
    if snapshot is not None:
        return math.fsum(snapshot.reach(pi, oid) for oid in match.matched)
    return math.fsum(point_query(pi, path, oid) for oid in match.matched)


def _convolve(left: list[float], right: list[float]) -> list[float]:
    """The count polynomial of two independent branches' total."""
    product = [0.0] * (len(left) + len(right) - 1)
    for shift, weight in enumerate(left):
        if weight:
            for index, value in enumerate(right, shift):
                product[index] += weight * value
    return product


def _add_scaled(total: list[float], weight: float, poly: list[float]) -> None:
    for index, value in enumerate(poly):
        total[index] += weight * value


def _independent_counts(
    opf: IndependentOPF | NonEmptyIndependentOPF,
    counts: dict[Oid, list[float]],
) -> list[float]:
    """The product-of-binomials closed form: child ``j`` adds its count
    polynomial with probability ``q_j`` — linear in the fan-out where
    the support has ``2^fan-out`` entries.  The empty child set's mass
    is carried apart (``none`` / ``some``), so conditioning on a
    non-empty set drops it without a subtraction."""
    none, some = 1.0, [0.0]
    for child, q in opf.inclusion.items():
        below = counts.get(child, [1.0])    # off the match: counts nothing
        factor = [q * value for value in below]
        factor[0] += 1.0 - q
        some = _convolve(some, factor)
        _add_scaled(some, none * q, below)
        none *= 1.0 - q
    if isinstance(opf, NonEmptyIndependentOPF):
        return [value / opf.nonempty_mass for value in some]
    some[0] += none
    return some


def match_count_distribution(
    pi: ProbabilisticInstance,
    path: PathExpression | str,
    match: PathMatch | None = None,
) -> dict[int, float]:
    """The exact distribution of ``#objects satisfying p`` (trees).

    Computed bottom-up with per-branch count-generating polynomials
    (lists indexed by count) — polynomial in the number of matched
    objects, never enumerating worlds.  An OPF's entries are grouped by
    their *mask* restricted to the object's children on the match, all
    the count depends on, and a mask's product extends that of the mask
    without its lowest child; independent OPFs use their closed form.  A
    precomputed ``match`` skips the structural locate step.
    """
    match = _locate(pi, path, match)
    if match.is_empty:
        return {0: 1.0}
    depth = len(match.levels) - 1
    if depth == 0:
        return {1: 1.0}

    # counts[o][k] = P(k matched descendants | o exists).  On a tree an
    # object's children on the match are its children with an entry.
    counts: dict[Oid, list[float]] = dict.fromkeys(
        match.levels[depth], [0.0, 1.0]
    )

    def product(mask: int) -> list[float]:
        """Of the ``kept`` polynomials in ``mask``: the product of the
        mask without its lowest child (remembered), times that child's."""
        poly = products.get(mask)
        if poly is None:
            lowest = mask & -mask
            poly = products[mask] = _convolve(
                product(mask ^ lowest), kept[lowest.bit_length() - 1]
            )
        return poly

    for level in range(depth - 1, -1, -1):
        for oid in match.levels[level]:
            opf = pi.opf(oid)
            if opf is None:
                raise QueryError(f"non-leaf object {oid!r} has no OPF")
            if isinstance(opf, (IndependentOPF, NonEmptyIndependentOPF)):
                counts[oid] = _independent_counts(opf, counts)
                continue
            tabular = opf.to_tabular()
            on_match = sum(
                1 << bit for bit, child in enumerate(tabular.children)
                if child in counts
            )
            # Off the match a child counts nothing (its bits are masked out).
            kept = [counts.get(child, [1.0]) for child in tabular.children]
            mass_of: dict[int, float] = {}
            for mask, probability in tabular.masks.items():
                mask &= on_match
                mass_of[mask] = mass_of.get(mask, 0.0) + probability
            products = {0: [1.0]}
            dist = [0.0] * (1 + sum(len(poly) - 1 for poly in kept))
            for mask, mass in mass_of.items():
                _add_scaled(dist, mass, product(mask))
            counts[oid] = dist
    # Every term is a product of positive masses, so a zero is a count
    # no world reaches — the keys are those of the enumerated support.
    return {
        count: probability
        for count, probability in enumerate(counts.get(pi.root, [1.0]))
        if probability
    }


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
