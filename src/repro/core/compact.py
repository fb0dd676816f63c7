"""Compact OPF representations (Section 3.2's structure-exploiting forms).

The paper notes that ``p(o)`` "may be defined more compactly, in the case
where there are some symmetries or independence constraints":

* :class:`IndependentOPF` — each candidate child occurs independently with
  its own probability (this is also exactly the ProTDB assumption, which
  makes the ProTDB translation in :mod:`repro.protdb` trivial).
* :class:`PerLabelOPF` — the child sets of distinct labels are chosen
  independently, so the joint is the product of one small distribution per
  label ("if the existence of author and title objects is independent, we
  only need a distribution over authors and a distribution over titles").
* :class:`SymmetricOPF` — indistinguishable objects: the probability of a
  child set depends only on its size (the vehicle1/vehicle2 example).

All three expose the abstract :class:`ObjectProbabilityFunction` interface,
so the semantics, algebra and queries work with them unchanged; the
``entry_count`` they report is the compact storage size, which is what the
OPF-representation ablation benchmark measures.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping, Sequence
from itertools import chain, combinations

from repro.core.distributions import ObjectProbabilityFunction, TabularOPF
from repro.core.potential import ChildSet
from repro.errors import DistributionError
from repro.semistructured.graph import Label, Oid


def _subsets(pool: Sequence[Oid]) -> Iterator[ChildSet]:
    ordered = sorted(pool)
    return (
        frozenset(combo)
        for combo in chain.from_iterable(
            combinations(ordered, size) for size in range(len(ordered) + 1)
        )
    )


class IndependentOPF(ObjectProbabilityFunction):
    """Each candidate child is present independently with probability ``p_i``.

    ``w(c) = prod_{i in c} p_i * prod_{i not in c} (1 - p_i)`` over the
    candidate pool.  Storage is linear in the number of candidates while
    the equivalent table has ``2^n`` entries.
    """

    __slots__ = ("_inclusion",)

    def __init__(self, inclusion: Mapping[Oid, float]) -> None:
        for oid, probability in inclusion.items():
            if not 0.0 <= probability <= 1.0:
                raise DistributionError(
                    f"inclusion probability of {oid!r} must be in [0, 1], "
                    f"got {probability!r}"
                )
        self._inclusion = dict(inclusion)

    @property
    def inclusion(self) -> dict[Oid, float]:
        """The per-child inclusion probabilities (a copy)."""
        return dict(self._inclusion)

    def prob(self, child_set: ChildSet) -> float:
        if not set(child_set) <= set(self._inclusion):
            return 0.0
        probability = 1.0
        for oid, p_in in self._inclusion.items():
            probability *= p_in if oid in child_set else (1.0 - p_in)
        return probability

    def support(self) -> Iterator[tuple[ChildSet, float]]:
        for child_set in _subsets(list(self._inclusion)):
            probability = self.prob(child_set)
            if probability > 0.0:
                yield child_set, probability

    def entry_count(self) -> int:
        return len(self._inclusion)

    def marginal_inclusion(self, oid: str) -> float:
        return self._inclusion.get(oid, 0.0)

    def __repr__(self) -> str:
        return f"IndependentOPF({len(self._inclusion)} children)"


class PerLabelOPF(ObjectProbabilityFunction):
    """Independent per-label components: ``w(c) = prod_l w_l(c ∩ lch(o, l))``.

    Each component is itself an OPF over the children of a single label
    (typically a small :class:`TabularOPF`).  Storage is the sum of the
    component sizes instead of their product.
    """

    __slots__ = ("_components",)

    def __init__(
        self, components: Mapping[Label, tuple[Sequence[Oid], ObjectProbabilityFunction]]
    ) -> None:
        seen: set[Oid] = set()
        normalized: dict[Label, tuple[frozenset[Oid], ObjectProbabilityFunction]] = {}
        for label, (candidates, opf) in components.items():
            pool = frozenset(candidates)
            if pool & seen:
                raise DistributionError(
                    f"label {label!r} shares candidate children with another label"
                )
            seen |= pool
            normalized[label] = (pool, opf)
        self._components = normalized

    def prob(self, child_set: ChildSet) -> float:
        remaining = set(child_set)
        probability = 1.0
        for pool, opf in self._components.values():
            part = frozenset(remaining & pool)
            remaining -= part
            probability *= opf.prob(part)
            if probability == 0.0:
                return 0.0
        if remaining:
            return 0.0
        return probability

    def support(self) -> Iterator[tuple[ChildSet, float]]:
        parts = [list(opf.support()) for _, opf in self._components.values()]

        def expand(index: int, acc: ChildSet, probability: float) -> Iterator[
            tuple[ChildSet, float]
        ]:
            if probability == 0.0:
                return
            if index == len(parts):
                yield acc, probability
                return
            for child_set, p in parts[index]:
                yield from expand(index + 1, acc | child_set, probability * p)

        yield from expand(0, frozenset(), 1.0)

    def entry_count(self) -> int:
        return sum(opf.entry_count() for _, opf in self._components.values())

    def marginal_inclusion(self, oid: str) -> float:
        """The owning label's component answers (the others sum out)."""
        for pool, opf in self._components.values():
            if oid in pool:
                return opf.marginal_inclusion(oid)
        return 0.0

    def component(self, label: Label) -> ObjectProbabilityFunction:
        """The per-label component OPF."""
        return self._components[label][1]

    def labels(self) -> frozenset[Label]:
        """The labels with a component distribution."""
        return frozenset(self._components)

    def __repr__(self) -> str:
        return f"PerLabelOPF(labels={sorted(self._components)!r})"


class SymmetricOPF(ObjectProbabilityFunction):
    """Indistinguishable children: ``w(c)`` depends only on ``|c|``.

    Parameterized by a distribution over child-set sizes; each set of size
    ``k`` receives ``size_prob[k] / C(n, k)``.  This encodes the paper's
    scene example where ``p(S1)({bridge1, vehicle1}) =
    p(S1)({bridge1, vehicle2})``.
    """

    __slots__ = ("_candidates", "_size_prob")

    def __init__(self, candidates: Sequence[Oid], size_prob: Mapping[int, float]) -> None:
        pool = sorted(set(candidates))
        for size, probability in size_prob.items():
            if size < 0 or size > len(pool):
                raise DistributionError(
                    f"size {size} outside [0, {len(pool)}] for symmetric OPF"
                )
            if probability < 0.0:
                raise DistributionError(f"negative size probability {probability!r}")
        self._candidates = tuple(pool)
        self._size_prob = {k: float(p) for k, p in size_prob.items() if p != 0.0}

    def prob(self, child_set: ChildSet) -> float:
        if not set(child_set) <= set(self._candidates):
            return 0.0
        size = len(child_set)
        mass = self._size_prob.get(size, 0.0)
        if mass == 0.0:
            return 0.0
        return mass / math.comb(len(self._candidates), size)

    def support(self) -> Iterator[tuple[ChildSet, float]]:
        for size in sorted(self._size_prob):
            share = self._size_prob[size] / math.comb(len(self._candidates), size)
            for combo in combinations(self._candidates, size):
                yield frozenset(combo), share

    def entry_count(self) -> int:
        return len(self._size_prob)

    def marginal_inclusion(self, oid: str) -> float:
        """``sum_k P(|c| = k) * k / n``: a size-``k`` set is uniform."""
        if oid not in self._candidates:
            return 0.0
        return sum(
            mass * size for size, mass in self._size_prob.items()
        ) / len(self._candidates)

    def __repr__(self) -> str:
        return (
            f"SymmetricOPF({len(self._candidates)} children, "
            f"sizes={sorted(self._size_prob)!r})"
        )


class NonEmptyIndependentOPF(ObjectProbabilityFunction):
    """Independent children *conditioned on the set being non-empty*.

    ``w(c) = [c != {}] * prod_{i in c} q_i * prod_{i not in c} (1 - q_i)
    / (1 - prod_i (1 - q_i))``.

    This is exactly the distribution the Section 6.1 normalization step
    produces when the input OPF is an :class:`IndependentOPF`: each kept
    child survives independently, and non-root objects are conditioned on
    having at least one surviving child.  Keeping it in this compact form
    lets ancestor projection run in O(children) per object instead of
    O(2^b) — see ``repro.algebra.projection_prob``.
    """

    __slots__ = ("_inclusion", "_nonempty_mass")

    def __init__(self, inclusion: Mapping[Oid, float]) -> None:
        for oid, probability in inclusion.items():
            if not 0.0 <= probability <= 1.0:
                raise DistributionError(
                    f"inclusion probability of {oid!r} must be in [0, 1], "
                    f"got {probability!r}"
                )
        self._inclusion = {o: p for o, p in inclusion.items() if p > 0.0}
        empty_mass = 1.0
        for probability in self._inclusion.values():
            empty_mass *= 1.0 - probability
        self._nonempty_mass = 1.0 - empty_mass
        if self._nonempty_mass <= 0.0:
            raise DistributionError(
                "conditioning on a non-empty child set requires at least one "
                "child with positive inclusion probability"
            )

    @property
    def inclusion(self) -> dict[Oid, float]:
        """The unconditional per-child inclusion probabilities (a copy)."""
        return dict(self._inclusion)

    @property
    def nonempty_mass(self) -> float:
        """``1 - prod (1 - q_i)`` — the normalizing constant."""
        return self._nonempty_mass

    def prob(self, child_set: ChildSet) -> float:
        if not child_set or not set(child_set) <= set(self._inclusion):
            return 0.0
        probability = 1.0
        for oid, q in self._inclusion.items():
            probability *= q if oid in child_set else (1.0 - q)
        return probability / self._nonempty_mass

    def support(self) -> Iterator[tuple[ChildSet, float]]:
        for child_set in _subsets(list(self._inclusion)):
            if not child_set:
                continue
            probability = self.prob(child_set)
            if probability > 0.0:
                yield child_set, probability

    def entry_count(self) -> int:
        return len(self._inclusion)

    def marginal_inclusion(self, oid: str) -> float:
        q = self._inclusion.get(oid, 0.0)
        return q / self._nonempty_mass if q else 0.0

    def __repr__(self) -> str:
        return f"NonEmptyIndependentOPF({len(self._inclusion)} children)"


def tabular_from(opf: ObjectProbabilityFunction) -> TabularOPF:
    """Materialize any OPF into the explicit-table representation."""
    return opf.to_tabular()
