"""Analysis utilities over probabilistic instances and world distributions.

The paper motivates keeping query results as probabilistic instances so
"further enquiries (e.g., about probabilities) can be made"; this module
supplies the enquiries that are about the *distributions themselves*:
entropies, expected instance size, divergences between interpretations,
and summary statistics of an instance's local functions.

Exact computations enumerate worlds where needed (small instances); the
per-object quantities (local entropies, expected size on trees) work at
any scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.instance import ProbabilisticInstance
from repro.errors import SemanticsError
from repro.semantics.global_interpretation import GlobalInterpretation
from repro.semistructured.graph import Oid


def _entropy(probabilities) -> float:
    return -sum(p * math.log2(p) for p in probabilities if p > 0.0)


def opf_entropy(pi: ProbabilisticInstance, oid: Oid) -> float:
    """The Shannon entropy (bits) of an object's child-set choice."""
    opf = pi.opf(oid)
    if opf is None:
        raise SemanticsError(f"object {oid!r} has no OPF")
    return _entropy(p for _, p in opf.support())


def vpf_entropy(pi: ProbabilisticInstance, oid: Oid) -> float:
    """The Shannon entropy (bits) of a leaf's value choice."""
    vpf = pi.effective_vpf(oid)
    if vpf is None:
        raise SemanticsError(f"object {oid!r} has no VPF")
    return _entropy(p for _, p in vpf.support())


def world_entropy(pi: ProbabilisticInstance) -> float:
    """The entropy (bits) of the full distribution over compatible worlds.

    Exact, by enumeration — exponential in instance size.
    """
    interpretation = GlobalInterpretation.from_local(pi)
    return _entropy(p for _, p in interpretation.support())


def local_entropy_total(pi: ProbabilisticInstance) -> float:
    """The sum of all local (OPF and VPF) entropies.

    On a tree this upper-bounds :func:`world_entropy` (children of absent
    objects never get sampled, so their entropy is not always spent).
    """
    total = 0.0
    for _, opf in pi.interpretation.opf_items():
        total += _entropy(p for _, p in opf.support())
    for oid in pi.weak.leaves():
        vpf = pi.effective_vpf(oid)
        if vpf is not None:
            total += _entropy(p for _, p in vpf.support())
    return total


def existence_probability(pi: ProbabilisticInstance, oid: Oid) -> float:
    """``P(o occurs)`` on a *tree-structured* instance, in closed form.

    The product of marginal inclusion probabilities up the (unique)
    parent chain; zero for an object the instance does not have.
    """
    if not pi.weak.is_tree():
        raise SemanticsError("closed-form existence needs a tree; use the BN engine")
    graph = pi.weak.graph()
    if oid not in graph:
        return 0.0
    probability = 1.0
    current = oid
    while current != pi.root:
        (parent,) = graph.parents(current)
        opf = pi.opf(parent)
        if opf is None:
            return 0.0
        probability *= opf.marginal_inclusion(current)
        if probability == 0.0:
            return 0.0
        current = parent
    return probability


def expected_size(pi: ProbabilisticInstance) -> float:
    """The expected number of objects in a compatible world (trees).

    ``E[|S|] = sum_o P(o occurs)`` by linearity — no enumeration needed.
    """
    return sum(existence_probability(pi, oid) for oid in pi.objects)


def kl_divergence(
    p: GlobalInterpretation, q: GlobalInterpretation
) -> float:
    """``KL(p || q)`` in bits; infinite when q misses mass p has."""
    total = 0.0
    for world, probability in p.support():
        other = q.prob(world)
        if other <= 0.0:
            return math.inf
        total += probability * math.log2(probability / other)
    return max(total, 0.0)


def total_variation(p: GlobalInterpretation, q: GlobalInterpretation) -> float:
    """Total-variation distance ``(1/2) sum |p - q|`` in [0, 1]."""
    worlds = {w for w, _ in p.support()} | {w for w, _ in q.support()}
    return 0.5 * sum(abs(p.prob(w) - q.prob(w)) for w in worlds)


@dataclass(frozen=True)
class InstanceSummary:
    """Shape and uncertainty statistics for a probabilistic instance."""

    objects: int
    non_leaves: int
    leaves: int
    interpretation_entries: int
    max_opf_support: int
    mean_opf_entropy: float
    is_tree: bool
    expected_objects: float | None   # None for non-trees

    def __str__(self) -> str:
        expected = (
            f"{self.expected_objects:.2f}" if self.expected_objects is not None
            else "n/a (DAG)"
        )
        return (
            f"objects={self.objects} (non-leaves={self.non_leaves}, "
            f"leaves={self.leaves}), entries={self.interpretation_entries}, "
            f"max |support|={self.max_opf_support}, "
            f"mean OPF entropy={self.mean_opf_entropy:.3f} bits, "
            f"tree={self.is_tree}, E[|S|]={expected}"
        )


def summarize(pi: ProbabilisticInstance) -> InstanceSummary:
    """Compute an :class:`InstanceSummary` (cheap; no enumeration)."""
    opf_sizes = []
    opf_entropies = []
    for _, opf in pi.interpretation.opf_items():
        support = list(opf.support())
        opf_sizes.append(len(support))
        opf_entropies.append(_entropy(p for _, p in support))
    is_tree = pi.weak.is_tree()
    return InstanceSummary(
        objects=len(pi),
        non_leaves=len(pi.weak.non_leaves()),
        leaves=len(pi.weak.leaves()),
        interpretation_entries=pi.total_interpretation_entries(),
        max_opf_support=max(opf_sizes, default=0),
        mean_opf_entropy=(
            sum(opf_entropies) / len(opf_entropies) if opf_entropies else 0.0
        ),
        is_tree=is_tree,
        expected_objects=expected_size(pi) if is_tree else None,
    )
