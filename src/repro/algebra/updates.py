"""Update operations on probabilistic instances.

The paper's situation 2 ("now we know that a particular book surely
exists") is a *belief update*; selection implements it by conditioning.
This module provides the wider update vocabulary a maintained
probabilistic database needs, all returning new instances:

* :func:`assert_child` / :func:`retract_child` — condition a parent's
  OPF on a specific child being present/absent.
* :func:`set_value` — fix a leaf's value (point-mass VPF).
* :func:`reweight_opf` — soft (virtual) evidence: multiply the OPF by a
  likelihood and renormalize.
* :func:`insert_child` — schema-extending update: add a brand-new
  potential child with an independent inclusion probability.
* :func:`remove_object` — delete an object (and its now-unreachable
  descendants) from the model entirely.

**Semantics note.**  These operations rewrite *local* functions.  For an
object ``o`` that occurs with certainty, conditioning its OPF equals
conditioning the global distribution (that is Definition 5.6's selection
restricted to one object).  When ``o`` occurs only with some probability,
the local rewrite realizes the conditional *given o occurs* while leaving
the probability of worlds without ``o`` untouched — the standard local
revision for hierarchical models, and the exact global conditional is
available through ``select_global`` / ``GlobalInterpretation.condition``.
Tests verify both facts.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.distributions import TabularOPF, TabularVPF
from repro.core.instance import ProbabilisticInstance
from repro.core.potential import ChildSet
from repro.errors import AlgebraError, DistributionError, EmptyResultError
from repro.semistructured.graph import Label, Oid
from repro.semistructured.types import Value


def _condition(
    result: ProbabilisticInstance,
    oid: Oid,
    predicate: Callable[[ChildSet], bool],
) -> ProbabilisticInstance:
    """Condition ``result``'s OPF of ``oid`` on ``predicate``, in place."""
    opf = result.opf(oid)
    if opf is None:
        raise AlgebraError(f"object {oid!r} has no OPF")
    try:
        conditioned, _ = opf.restrict(predicate)
    except DistributionError as exc:
        raise EmptyResultError(str(exc)) from exc
    result.interpretation.drop(oid)
    result.interpretation.set_opf(oid, conditioned)
    return result


def assert_child(
    pi: ProbabilisticInstance, parent: Oid, child: Oid
) -> ProbabilisticInstance:
    """Condition on ``child in c(parent)`` (given the parent occurs)."""
    if child not in pi.weak.potential_children(parent):
        raise AlgebraError(f"{child!r} is not a potential child of {parent!r}")
    return _condition(pi.copy(), parent, lambda c: child in c)


def retract_child(
    pi: ProbabilisticInstance, parent: Oid, child: Oid
) -> ProbabilisticInstance:
    """Condition on ``child not in c(parent)`` and prune the orphan.

    The child (with everything below it that becomes unreachable) is
    removed from the weak instance as well: after the retraction it can
    never occur.
    """
    result = _condition(
        ProbabilisticInstance(pi.weak.copy(), pi.interpretation.copy()),
        parent, lambda c: child not in c,
    )
    label = result.weak.label_of_child(parent, child)
    remaining = result.weak.lch(parent, label) - {child}
    result.weak.set_lch(parent, label, remaining)
    if result.weak.has_explicit_card(parent, label):
        card = result.weak.card(parent, label)
        result.weak.set_card(parent, label, card.clamp_to(len(remaining)))
    _prune_unreachable(result)
    return result


def set_value(
    pi: ProbabilisticInstance, oid: Oid, value: Value
) -> ProbabilisticInstance:
    """Fix a leaf's value: its VPF becomes a point mass on ``value``.

    Raises :class:`EmptyResultError` when the current VPF gives the value
    zero probability (the evidence contradicts the model).
    """
    result = pi.copy()
    vpf = result.effective_vpf(oid)
    if vpf is None:
        raise AlgebraError(f"object {oid!r} carries no value distribution")
    if vpf.prob(value) <= 0.0:
        raise EmptyResultError(
            f"value {value!r} has probability zero at {oid!r}"
        )
    result.interpretation.drop(oid)
    result.interpretation.set_vpf(oid, TabularVPF.point_mass(value))
    return result


def reweight_opf(
    pi: ProbabilisticInstance,
    oid: Oid,
    likelihood: Callable[[ChildSet], float],
) -> ProbabilisticInstance:
    """Soft evidence on an object's child-set choice.

    Each support entry is multiplied by ``likelihood(c) >= 0`` and the
    OPF renormalized (Pearl's virtual evidence, applied to the local
    choice given the object occurs).
    """
    result = pi.copy()
    opf = result.opf(oid)
    if opf is None:
        raise AlgebraError(f"object {oid!r} has no OPF")
    table: dict[ChildSet, float] = {}
    for child_set, probability in opf.support():
        weight = likelihood(child_set)
        if weight < 0.0:
            raise AlgebraError(f"negative likelihood for {sorted(child_set)!r}")
        if weight > 0.0:
            table[child_set] = probability * weight
    mass = sum(table.values())
    if mass <= 0.0:
        raise EmptyResultError("the likelihood annihilates the entire OPF")
    result.interpretation.drop(oid)
    result.interpretation.set_opf(
        oid, TabularOPF({c: p / mass for c, p in table.items()})
    )
    return result


def insert_child(
    pi: ProbabilisticInstance,
    parent: Oid,
    label: Label,
    child: Oid,
    probability: float,
) -> ProbabilisticInstance:
    """Add a new potential child present independently with ``probability``.

    The parent's OPF becomes the product of the old OPF and an
    independent inclusion flip for the new child; existing entries keep
    their relative weights.  The new child starts as a bare leaf — attach
    a type/VPF or children with further updates.
    """
    if not 0.0 <= probability <= 1.0:
        raise AlgebraError(f"inclusion probability must be in [0, 1], got {probability!r}")
    if child in pi.weak:
        raise AlgebraError(f"object id {child!r} already exists")
    result = ProbabilisticInstance(pi.weak.copy(), pi.interpretation.copy())
    opf = result.opf(parent)
    if opf is None:
        raise AlgebraError(f"object {parent!r} has no OPF")
    result.weak.set_lch(
        parent, label, set(result.weak.lch(parent, label)) | {child}
    )
    table: dict[ChildSet, float] = {}
    for child_set, p in opf.support():
        if probability < 1.0:
            table[child_set] = table.get(child_set, 0.0) + p * (1.0 - probability)
        if probability > 0.0:
            extended = child_set | {child}
            table[extended] = table.get(extended, 0.0) + p * probability
    result.interpretation.drop(parent)
    result.interpretation.set_opf(parent, TabularOPF(table))
    return result


def remove_object(pi: ProbabilisticInstance, oid: Oid) -> ProbabilisticInstance:
    """Delete an object from the model entirely.

    Every parent's OPF is conditioned on not choosing ``oid``; the object
    and any descendants that become unreachable are dropped from the weak
    instance.  Raises :class:`EmptyResultError` when some parent *must*
    choose it (e.g. card ``[1, 1]`` with a single candidate).
    """
    if oid == pi.root:
        raise AlgebraError("cannot remove the root object")
    result = ProbabilisticInstance(pi.weak.copy(), pi.interpretation.copy())
    graph = result.weak.graph()
    if oid not in graph:
        raise AlgebraError(f"unknown object: {oid!r}")
    for parent in sorted(graph.parents(oid)):
        opf = result.opf(parent)
        if opf is None:
            raise AlgebraError(f"object {parent!r} has no OPF")
        try:
            conditioned, _ = opf.restrict(lambda c: oid not in c)
        except DistributionError as exc:
            raise EmptyResultError(str(exc)) from exc
        result.interpretation.drop(parent)
        result.interpretation.set_opf(parent, conditioned)
        label = result.weak.label_of_child(parent, oid)
        remaining = result.weak.lch(parent, label) - {oid}
        result.weak.set_lch(parent, label, remaining)
        if result.weak.has_explicit_card(parent, label):
            card = result.weak.card(parent, label)
            result.weak.set_card(parent, label, card.clamp_to(len(remaining)))
    _prune_unreachable(result)
    return result


def _prune_unreachable(pi: ProbabilisticInstance) -> None:
    """Drop objects no longer reachable from the root (in place)."""
    weak = pi.weak
    reachable = weak.graph().reachable_from(weak.root)
    for oid in sorted(weak.objects - reachable):
        pi.interpretation.drop(oid)
        weak.remove_object(oid)
