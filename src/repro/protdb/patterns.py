"""Pattern-tree (conjunctive) queries, ProTDB-style, over PXML instances.

ProTDB's query primitive matches a *query pattern tree* against the
probabilistic tree; the paper's related-work section contrasts it with
PXML's path-expression algebra ("there is no direct mapping").  Having
both sides executable makes the comparison concrete: this module
evaluates pattern trees over our probabilistic instances.

A :class:`PatternNode` constrains the incoming edge label, optionally the
leaf value, and carries sub-patterns.  A *witness* in a world is a
homomorphism: the pattern root maps to the instance root and every
pattern child maps to some child of its parent's image reached by an
edge with the required label (two pattern siblings may map to the same
object).  :func:`pattern_probability` computes ``P(a witness exists)``
exactly on tree-structured instances with a bottom-up dynamic program —
for every object and every *set* of pattern nodes it may simultaneously
serve, the probability its subtree embeds them all; a coverage DP over
each child set combines the branches (exponential only in the pattern
width).  :func:`world_has_witness` provides the enumeration reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain as iter_chain
from itertools import combinations

from repro.core.instance import ProbabilisticInstance
from repro.errors import NonTreeInstanceError, QueryError
from repro.semistructured.graph import Label, Oid
from repro.semistructured.instance import SemistructuredInstance
from repro.semistructured.types import Value


@dataclass(frozen=True)
class PatternNode:
    """One node of a query pattern tree.

    Attributes:
        label: the label of the edge into this node (ignored at the
            pattern root).
        value: an optional required leaf value.
        children: the sub-patterns, all of which must embed.
    """

    label: Label | None = None
    value: Value | None = None
    children: tuple["PatternNode", ...] = field(default_factory=tuple)

    @staticmethod
    def root(*children: "PatternNode") -> "PatternNode":
        """The pattern root (anchored at the instance root)."""
        return PatternNode(label=None, children=tuple(children))

    @staticmethod
    def child(
        label: Label, *children: "PatternNode", value: Value | None = None
    ) -> "PatternNode":
        """A labeled pattern node."""
        if value is not None and children:
            raise QueryError("a value-constrained pattern node cannot have children")
        return PatternNode(label=label, value=value, children=tuple(children))


# ----------------------------------------------------------------------
# Witness checking in a concrete world (the enumeration reference)
# ----------------------------------------------------------------------
def world_has_witness(world: SemistructuredInstance, pattern: PatternNode) -> bool:
    """Whether a world admits a homomorphic embedding of ``pattern``."""

    def embeds(oid: Oid, node: PatternNode) -> bool:
        if node.value is not None and world.val(oid) != node.value:
            return False
        for sub in node.children:
            candidates = world.lch(oid, sub.label)
            if not any(embeds(child, sub) for child in candidates):
                return False
        return True

    return embeds(world.root, pattern)


# ----------------------------------------------------------------------
# Exact probability on tree-structured instances
# ----------------------------------------------------------------------
def pattern_probability(pi: ProbabilisticInstance, pattern: PatternNode) -> float:
    """``P(some witness of the pattern exists)`` — exact on trees."""
    if not pi.weak.is_tree():
        raise NonTreeInstanceError(
            "pattern probabilities require a tree-structured instance; use "
            "enumeration or sampling on DAGs"
        )
    return _embed_all(pi, pi.root, (pattern,), {})


def _embed_all(
    pi: ProbabilisticInstance,
    oid: Oid,
    nodes: tuple[PatternNode, ...],
    cache: dict,
) -> float:
    """``P(oid's subtree simultaneously embeds every pattern in nodes)``."""
    key = (oid, nodes)
    if key in cache:
        return cache[key]

    # Value constraints: all constrained nodes must agree, and the leaf's
    # VPF supplies the probability (structure and value are independent).
    required_values = {n.value for n in nodes if n.value is not None}
    value_factor = 1.0
    if required_values:
        if len(required_values) > 1:
            cache[key] = 0.0
            return 0.0
        vpf = pi.effective_vpf(oid)
        if vpf is None:
            cache[key] = 0.0
            return 0.0
        value_factor = vpf.prob(next(iter(required_values)))
        if value_factor == 0.0:
            cache[key] = 0.0
            return 0.0

    needed = tuple(
        sub for node in nodes for sub in node.children
    )
    if not needed:
        cache[key] = value_factor
        return value_factor
    opf = pi.opf(oid)
    if opf is None:
        cache[key] = 0.0  # a leaf cannot supply pattern children
        return 0.0

    total = 0.0
    for child_set, p_children in opf.support():
        total += p_children * _cover_probability(pi, oid, child_set, needed, cache)
    result = value_factor * total
    cache[key] = result
    return result


def _cover_probability(
    pi: ProbabilisticInstance,
    parent: Oid,
    child_set: frozenset[Oid],
    needed: tuple[PatternNode, ...],
    cache: dict,
) -> float:
    """``P(every needed pattern child embeds somewhere in child_set)``.

    Coverage DP: process the children one by one, tracking the subset of
    ``needed`` already covered.  Each child contributes an *exact* joint
    indicator distribution over the pattern nodes it could serve,
    recovered from the "embeds all of T" probabilities by
    inclusion-exclusion on the subset lattice.
    """
    indices = range(len(needed))
    full = frozenset(indices)
    states: dict[frozenset[int], float] = {frozenset(): 1.0}
    for child in sorted(child_set):
        label = pi.weak.label_of_child(parent, child)
        applicable = [i for i in indices if needed[i].label == label]
        if not applicable:
            continue
        exact = _exact_cover_distribution(pi, child, needed, applicable, cache)
        new_states: dict[frozenset[int], float] = {}
        for covered, p_state in states.items():
            for subset, p_subset in exact.items():
                key = covered | subset
                new_states[key] = new_states.get(key, 0.0) + p_state * p_subset
        states = new_states
    return states.get(full, 0.0)


def estimate_pattern_probability(
    pi: ProbabilisticInstance,
    pattern: PatternNode,
    samples: int = 1000,
    seed: int | None = None,
):
    """Monte-Carlo ``P(witness exists)`` — works on DAG instances too.

    Returns a :class:`repro.semantics.sampling.Estimate`.
    """
    from repro.semantics.sampling import estimate_probability

    return estimate_probability(
        pi, lambda world: world_has_witness(world, pattern), samples, seed
    )


def _exact_cover_distribution(
    pi: ProbabilisticInstance,
    child: Oid,
    needed: tuple[PatternNode, ...],
    applicable: list[int],
    cache: dict,
) -> dict[frozenset[int], float]:
    """The distribution of *exactly which* applicable patterns the child's
    subtree embeds, from the joint "embeds all of T" probabilities."""
    subsets = [
        frozenset(combo)
        for combo in iter_chain.from_iterable(
            combinations(applicable, size)
            for size in range(len(applicable) + 1)
        )
    ]
    all_of = {
        subset: _embed_all(
            pi, child, tuple(needed[i] for i in sorted(subset)), cache
        )
        for subset in subsets
    }
    exact: dict[frozenset[int], float] = {}
    for subset in sorted(subsets, key=len, reverse=True):
        mass = all_of[subset]
        for larger, p_larger in exact.items():
            if subset < larger:
                mass -= p_larger
        exact[subset] = max(mass, 0.0)
    return exact
