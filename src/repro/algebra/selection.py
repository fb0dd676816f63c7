"""Selection on probabilistic instances (Sections 5.2 and 6).

Selection conditions locate worlds; the *global* semantics (Definition
5.6) keeps the satisfying worlds and renormalizes their probabilities.
The *local* algorithm, for tree-structured instances, conditions the OPFs
along the (unique) root-to-target chain instead — the structure of the
instance does not change, only depth-many local interpretations do, which
is why disk write dominates the paper's selection experiments.

Condition kinds (Definitions 5.4, 5.5, and the "other kinds ... work in a
similar way" remark):

* :class:`ObjectCondition` — ``p = o``: object ``o`` is reached via ``p``.
* :class:`ValueCondition` — ``val(p) = v``: *some* object reached via
  ``p`` has value ``v`` (existential; global engine only).
* :class:`ObjectValueCondition` — ``o`` is reached via ``p`` *and* has
  value ``v`` (the local engine's value-selection form).
* :class:`CardinalityCondition` — some object reached via ``p`` has a
  number of ``label``-children inside an interval (global engine only).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.core.cardinality import CardinalityInterval
from repro.core.distributions import TabularVPF
from repro.core.instance import ProbabilisticInstance
from repro.errors import (
    AlgebraError,
    DistributionError,
    EmptyResultError,
    NonTreeInstanceError,
)
from repro.semantics.global_interpretation import GlobalInterpretation
from repro.semistructured.graph import Label, Oid
from repro.semistructured.instance import SemistructuredInstance
from repro.semistructured.paths import PathExpression, evaluate_path


class SelectionCondition(ABC):
    """A predicate over semistructured worlds."""

    @abstractmethod
    def satisfied_by(self, world: SemistructuredInstance) -> bool:
        """Whether the world satisfies the condition."""


@dataclass(frozen=True)
class ObjectCondition(SelectionCondition):
    """``p = o`` (Definition 5.4)."""

    path: PathExpression
    oid: Oid

    def satisfied_by(self, world: SemistructuredInstance) -> bool:
        return self.oid in evaluate_path(world.graph, self.path)

    def __str__(self) -> str:
        return f"{self.path} = {self.oid}"


@dataclass(frozen=True)
class ValueCondition(SelectionCondition):
    """``val(p) = v`` (Definition 5.5), read existentially."""

    path: PathExpression
    value: object

    def satisfied_by(self, world: SemistructuredInstance) -> bool:
        return any(
            world.val(oid) == self.value
            for oid in evaluate_path(world.graph, self.path)
        )

    def __str__(self) -> str:
        return f"val({self.path}) = {self.value!r}"


@dataclass(frozen=True)
class ObjectValueCondition(SelectionCondition):
    """``o in p  and  val(o) = v`` — the pinpointed value selection."""

    path: PathExpression
    oid: Oid
    value: object

    def satisfied_by(self, world: SemistructuredInstance) -> bool:
        return (
            self.oid in evaluate_path(world.graph, self.path)
            and world.val(self.oid) == self.value
        )

    def __str__(self) -> str:
        return f"{self.path} = {self.oid} and val({self.oid}) = {self.value!r}"


@dataclass(frozen=True)
class ObjectCardinalityCondition(SelectionCondition):
    """``o in p  and  |lch(o, label)| in interval`` — pinpointed form.

    The "other kinds of selection conditions with comparisons based on
    cardinality ... work in a similar way" remark, made concrete with a
    specific target so the efficient chain algorithm applies.
    """

    path: PathExpression
    oid: Oid
    label: Label
    interval: CardinalityInterval

    def satisfied_by(self, world: SemistructuredInstance) -> bool:
        return (
            self.oid in evaluate_path(world.graph, self.path)
            and len(world.lch(self.oid, self.label)) in self.interval
        )

    def __str__(self) -> str:
        return (
            f"{self.path} = {self.oid} and "
            f"|lch({self.oid}, {self.label})| in {self.interval}"
        )


@dataclass(frozen=True)
class CardinalityCondition(SelectionCondition):
    """Some object in ``p`` has a ``label``-child count within ``interval``."""

    path: PathExpression
    label: Label
    interval: CardinalityInterval

    def satisfied_by(self, world: SemistructuredInstance) -> bool:
        for oid in evaluate_path(world.graph, self.path):
            count = len(world.lch(oid, self.label))
            if count in self.interval:
                return True
        return False

    def __str__(self) -> str:
        return f"|lch({self.path}, {self.label})| in {self.interval}"


def select_global(
    pi: ProbabilisticInstance, condition: SelectionCondition
) -> GlobalInterpretation:
    """Definition 5.6 verbatim: filter worlds, renormalize."""
    interpretation = GlobalInterpretation.from_local(pi)
    return interpretation.condition(condition.satisfied_by)


@dataclass(frozen=True)
class SelectionResult:
    """The outcome of an efficient selection.

    Attributes:
        instance: the updated probabilistic instance (same structure,
            conditioned local interpretations along the target chain).
        probability: the prior probability of the selection condition —
            the normalizing constant of Definition 5.6.
    """

    instance: ProbabilisticInstance
    probability: float


def select_local(
    pi: ProbabilisticInstance, condition: SelectionCondition
) -> SelectionResult:
    """The efficient selection for tree-structured instances.

    Supports :class:`ObjectCondition` and :class:`ObjectValueCondition`
    (the forms with a pinpointed target object, whose root chain is unique
    in a tree).  The OPF of each object on the chain is conditioned on the
    next chain object being among its children; for a value condition the
    target's VPF is additionally conditioned on the value.  Only
    depth-many local probability functions change.

    Raises :class:`EmptyResultError` when the condition has probability
    zero, matching the paper's normalization being undefined there.
    """
    if isinstance(condition, ObjectCondition):
        return _select_chain(pi, condition.path, condition.oid, value=None)
    if isinstance(condition, ObjectValueCondition):
        return _select_chain(pi, condition.path, condition.oid, value=condition.value,
                             has_value=True)
    if isinstance(condition, ObjectCardinalityCondition):
        return _select_chain_cardinality(pi, condition)
    raise AlgebraError(
        f"the local selection algorithm does not support {type(condition).__name__};"
        " use select_global or the Bayesian-network engine"
    )


def chain_to(
    pi: ProbabilisticInstance, path: PathExpression, oid: Oid
) -> list[Oid]:
    """The unique chain ``root, o_1, ..., o_n = oid`` matching ``path``.

    Requires a tree-structured weak instance graph
    (:class:`NonTreeInstanceError` otherwise; the proof is the weak
    instance's, made once).  Raises :class:`AlgebraError` when ``oid``
    does not satisfy the path in the weak instance (in which case the
    selection probability is zero).
    """
    if path.root != pi.root:
        raise AlgebraError(
            f"path root {path.root!r} differs from instance root {pi.root!r}"
        )
    if not pi.weak.is_tree():
        raise NonTreeInstanceError(
            "chain extraction requires a tree-structured instance"
        )
    graph = pi.weak.graph()
    if oid not in graph:
        raise AlgebraError(f"object {oid!r} is not in the instance")
    chain = [oid]
    current = oid
    for label in reversed(path.labels):
        parents = graph.parents(current)
        if not parents:
            raise AlgebraError(f"object {oid!r} does not satisfy path {path}")
        (parent,) = parents
        if graph.label(parent, current) != label:
            raise AlgebraError(f"object {oid!r} does not satisfy path {path}")
        chain.append(parent)
        current = parent
    if current != pi.root:
        raise AlgebraError(f"object {oid!r} does not satisfy path {path}")
    chain.reverse()
    return chain


def condition_on_chain(
    pi: ProbabilisticInstance, chain: list[Oid], copy: bool = True
) -> SelectionResult:
    """Condition each chain object's OPF on containing its successor.

    This is the core of the efficient selection: only ``len(chain) - 1``
    local probability functions change.  With ``copy=False`` the input
    instance is mutated in place (the benchmark harness times the copy
    separately).
    """
    result = pi.copy() if copy else pi
    probability = 1.0
    for parent, child in zip(chain, chain[1:]):
        opf = result.opf(parent)
        if opf is None:
            raise AlgebraError(f"non-leaf object {parent!r} has no OPF")
        try:
            conditioned, mass = opf.restrict(lambda c, _child=child: _child in c)
        except DistributionError as exc:
            raise EmptyResultError(str(exc)) from exc
        result.interpretation.drop(parent)
        result.interpretation.set_opf(parent, conditioned)
        probability *= mass
    return SelectionResult(result, probability)


def _select_chain_cardinality(
    pi: ProbabilisticInstance, condition: ObjectCardinalityCondition
) -> SelectionResult:
    chain = chain_to(pi, condition.path, condition.oid)
    chained = condition_on_chain(pi, chain)
    result = chained.instance
    probability = chained.probability
    opf = result.opf(condition.oid)
    if opf is None:
        raise EmptyResultError(
            f"target {condition.oid!r} is a leaf: it has no child cardinalities"
        )
    pool = result.weak.lch(condition.oid, condition.label)
    try:
        conditioned, mass = opf.restrict(
            lambda c: len(c & pool) in condition.interval
        )
    except DistributionError as exc:
        raise EmptyResultError(str(exc)) from exc
    result.interpretation.drop(condition.oid)
    result.interpretation.set_opf(condition.oid, conditioned)
    return SelectionResult(result, probability * mass)


def _select_chain(
    pi: ProbabilisticInstance,
    path: PathExpression,
    oid: Oid,
    value: object,
    has_value: bool = False,
) -> SelectionResult:
    chain = chain_to(pi, path, oid)
    chained = condition_on_chain(pi, chain)
    result = chained.instance
    probability = chained.probability
    if has_value:
        vpf = result.effective_vpf(oid)
        if vpf is None:
            raise EmptyResultError(f"target {oid!r} carries no value distribution")
        try:
            conditioned_vpf, mass = vpf.restrict(lambda v: v == value)
        except DistributionError as exc:
            raise EmptyResultError(str(exc)) from exc
        result.interpretation.drop(oid)
        result.interpretation.set_vpf(oid, conditioned_vpf)
        probability *= mass
    return SelectionResult(result, probability)
