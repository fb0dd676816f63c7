"""Object and value probability functions (Definitions 3.8–3.9).

An **OPF** ``w : PC(o) -> [0, 1]`` gives the conditional probability of
each potential child set of a non-leaf object, given the object exists; a
**VPF** ``w : dom(tau(o)) -> [0, 1]`` gives the distribution over a leaf
object's value.  Both must sum to one.

:class:`TabularOPF` / :class:`TabularVPF` are the explicit table
representations used throughout the paper (the experiments store ``2^b``
entries per non-leaf object).  Compact representations that exploit
independence or symmetry live in :mod:`repro.core.compact`; they share the
abstract interfaces defined here.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Mapping

from repro.core.potential import ChildSet
from repro.errors import DistributionError
from repro.semistructured.types import Value

#: Absolute tolerance for "sums to one" checks.
PROBABILITY_TOLERANCE = 1e-9


def _check_total(total: float, what: str) -> None:
    if not math.isclose(total, 1.0, abs_tol=PROBABILITY_TOLERANCE, rel_tol=1e-9):
        raise DistributionError(f"{what} must sum to 1, got {total!r}")


class ObjectProbabilityFunction(ABC):
    """Abstract OPF: a distribution over potential child sets."""

    @abstractmethod
    def prob(self, child_set: ChildSet) -> float:
        """``w(c)`` — zero for child sets outside the support."""

    @abstractmethod
    def support(self) -> Iterator[tuple[ChildSet, float]]:
        """Iterate ``(c, w(c))`` over child sets with nonzero probability."""

    @abstractmethod
    def entry_count(self) -> int:
        """The number of stored entries (the paper's cost parameter)."""

    def to_tabular(self) -> "TabularOPF":
        """Materialize as an explicit table."""
        return TabularOPF(dict(self.support()))

    def validate(self, potential: Iterable[ChildSet] | None = None) -> None:
        """Check legality: support within ``PC(o)`` and total mass one."""
        total = 0.0
        allowed = set(potential) if potential is not None else None
        for child_set, probability in self.support():
            if probability < 0:
                raise DistributionError(f"negative probability {probability!r}")
            if allowed is not None and child_set not in allowed:
                raise DistributionError(
                    f"OPF assigns mass to {sorted(child_set)!r} outside PC(o)"
                )
            total += probability
        _check_total(total, "OPF")

    def marginal_inclusion(self, oid: str) -> float:
        """``P(oid in c)`` — the marginal probability a child is chosen."""
        return sum(p for c, p in self.support() if oid in c)

    def restrict(
        self, predicate: Callable[[ChildSet], bool]
    ) -> tuple["TabularOPF", float]:
        """Condition on ``predicate(c)`` being true.

        Returns the normalized conditional OPF and the probability mass of
        the conditioning event.  Raises :class:`DistributionError` when the
        event has probability zero.
        """
        kept = {c: p for c, p in self.support() if predicate(c)}
        mass = sum(kept.values())
        if mass <= 0.0:
            raise DistributionError("conditioning event has probability zero")
        return TabularOPF({c: p / mass for c, p in kept.items()}), mass


class ValueProbabilityFunction(ABC):
    """Abstract VPF: a distribution over a leaf's value domain."""

    @abstractmethod
    def prob(self, value: Value) -> float:
        """``w(v)`` — zero for values outside the support."""

    @abstractmethod
    def support(self) -> Iterator[tuple[Value, float]]:
        """Iterate ``(v, w(v))`` over values with nonzero probability."""

    @abstractmethod
    def entry_count(self) -> int:
        """The number of stored entries."""

    def to_tabular(self) -> "TabularVPF":
        """Materialize as an explicit table."""
        return TabularVPF(dict(self.support()))

    def validate(self, domain: Iterable[Value] | None = None) -> None:
        """Check legality: support within ``dom(tau(o))`` and mass one."""
        total = 0.0
        allowed = set(domain) if domain is not None else None
        for value, probability in self.support():
            if probability < 0:
                raise DistributionError(f"negative probability {probability!r}")
            if allowed is not None and value not in allowed:
                raise DistributionError(f"VPF assigns mass to {value!r} outside dom")
            total += probability
        _check_total(total, "VPF")

    def restrict(self, predicate: Callable[[Value], bool]) -> tuple["TabularVPF", float]:
        """Condition on ``predicate(v)``; returns (conditional VPF, mass)."""
        kept = {v: p for v, p in self.support() if predicate(v)}
        mass = sum(kept.values())
        if mass <= 0.0:
            raise DistributionError("conditioning event has probability zero")
        return TabularVPF({v: p / mass for v, p in kept.items()}), mass


class TabularOPF(ObjectProbabilityFunction):
    """An OPF stored as an explicit table, keyed by child-set bitmasks.

    ``children`` is a sorted tuple of object ids and ``masks`` maps each
    child set of the support, as an int whose bit ``i`` stands for
    ``children[i]``, to its nonzero probability.  A dict of ints and
    floats is not tracked by the cyclic collector (a frozenset key per
    entry was), and the hot readers (the projection's marginalizer,
    ``root_epsilon``, the count aggregates, the codecs) work on the masks
    directly.  :meth:`support`, :meth:`prob` and :meth:`items_sorted`
    build frozensets on demand for the walked algorithms.
    """

    __slots__ = ("children", "masks")

    def __init__(self, table: Mapping[Iterable[str] | ChildSet, float]) -> None:
        keyed: dict[ChildSet, float] = {}
        for child_set, probability in table.items():
            key = child_set if isinstance(child_set, frozenset) else frozenset(child_set)
            if key in keyed:
                raise DistributionError(f"duplicate OPF entry for {sorted(key)!r}")
            if probability != 0.0:
                keyed[key] = float(probability)
        self.children: tuple[str, ...] = tuple(sorted(frozenset().union(*keyed)))
        bit = {child: 1 << i for i, child in enumerate(self.children)}
        self.masks: dict[int, float] = {
            sum(bit[child] for child in key): p for key, p in keyed.items()
        }

    @classmethod
    def from_masks(
        cls, children: tuple[str, ...], masks: dict[int, float]
    ) -> "TabularOPF":
        """The OPF whose table is ``masks`` over ``children`` (sorted,
        distinct ids).  ``masks`` is kept, not copied; zero entries are
        dropped."""
        opf = cls.__new__(cls)
        opf.children = children
        opf.masks = (
            {m: p for m, p in masks.items() if p != 0.0}
            if 0.0 in masks.values() else masks
        )
        return opf

    def bit(self, oid: str) -> int:
        """``oid``'s bit in the masks (0 when it is not a child)."""
        children = self.children
        position = bisect_left(children, oid)
        if position < len(children) and children[position] == oid:
            return 1 << position
        return 0

    def members(self, mask: int) -> tuple[str, ...]:
        """The children ``mask`` names, in sorted order."""
        children = self.children
        return tuple(children[i] for i in range(mask.bit_length()) if mask >> i & 1)

    def prob(self, child_set: ChildSet) -> float:
        mask = 0
        for child in child_set:
            bit = self.bit(child)
            if not bit:
                return 0.0
            mask |= bit
        return self.masks.get(mask, 0.0)

    def support(self) -> Iterator[tuple[ChildSet, float]]:
        members = self.members
        return ((frozenset(members(m)), p) for m, p in self.masks.items())

    def entry_count(self) -> int:
        return len(self.masks)

    def to_tabular(self) -> "TabularOPF":
        return self

    def marginal_inclusion(self, oid: str) -> float:
        bit = self.bit(oid)
        return sum(p for m, p in self.masks.items() if m & bit)

    def restrict(
        self, predicate: Callable[[ChildSet], bool]
    ) -> tuple["TabularOPF", float]:
        """As :meth:`ObjectProbabilityFunction.restrict`, on the mask
        table: the conditional OPF keeps ``children``."""
        members = self.members
        kept = {
            m: p for m, p in self.masks.items() if predicate(frozenset(members(m)))
        }
        mass = sum(kept.values())
        if mass <= 0.0:
            raise DistributionError("conditioning event has probability zero")
        return (
            TabularOPF.from_masks(self.children, {m: p / mass for m, p in kept.items()}),
            mass,
        )

    def rows_sorted(self) -> list[tuple[tuple[str, ...], float]]:
        """``(sorted members, probability)`` per entry, smaller sets
        first and then by members: the order files are written in."""
        members = self.members
        return sorted(
            ((members(m), p) for m, p in self.masks.items()),
            key=lambda row: (len(row[0]), row[0]),
        )

    def items_sorted(self) -> list[tuple[ChildSet, float]]:
        """Entries in a deterministic (sorted) order, for display and IO."""
        return [(frozenset(row), p) for row, p in self.rows_sorted()]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TabularOPF):
            return NotImplemented
        if self.children == other.children:
            mine, theirs = self.masks, other.masks
        else:
            mine, theirs = dict(self.support()), dict(other.support())
        if mine.keys() != theirs.keys():
            return False
        return all(
            math.isclose(p, theirs[c], abs_tol=PROBABILITY_TOLERANCE)
            for c, p in mine.items()
        )

    def __repr__(self) -> str:
        return f"TabularOPF({len(self.masks)} entries)"

    @classmethod
    def point_mass(cls, child_set: Iterable[str]) -> "TabularOPF":
        """The deterministic OPF that always chooses ``child_set``."""
        return cls({frozenset(child_set): 1.0})

    @classmethod
    def uniform(cls, child_sets: Iterable[ChildSet]) -> "TabularOPF":
        """The uniform OPF over the given potential child sets."""
        sets = [frozenset(c) for c in child_sets]
        if not sets:
            raise DistributionError("uniform OPF needs a nonempty support")
        share = 1.0 / len(sets)
        return cls({c: share for c in sets})


class TabularVPF(ValueProbabilityFunction):
    """A VPF stored as an explicit ``{value: probability}`` table."""

    __slots__ = ("_table",)

    def __init__(self, table: Mapping[Value, float]) -> None:
        self._table = {v: float(p) for v, p in table.items() if p != 0.0}

    def prob(self, value: Value) -> float:
        return self._table.get(value, 0.0)

    def support(self) -> Iterator[tuple[Value, float]]:
        return iter(self._table.items())

    def entry_count(self) -> int:
        return len(self._table)

    def items_sorted(self) -> list[tuple[Value, float]]:
        """Entries sorted by value representation, for display and IO."""
        return sorted(self._table.items(), key=lambda item: repr(item[0]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TabularVPF):
            return NotImplemented
        if set(self._table) != set(other._table):
            return False
        return all(
            math.isclose(p, other._table[v], abs_tol=PROBABILITY_TOLERANCE)
            for v, p in self._table.items()
        )

    def __repr__(self) -> str:
        return f"TabularVPF({len(self._table)} entries)"

    @classmethod
    def point_mass(cls, value: Value) -> "TabularVPF":
        """The deterministic VPF concentrated on ``value``."""
        return cls({value: 1.0})

    @classmethod
    def uniform(cls, values: Iterable[Value]) -> "TabularVPF":
        """The uniform VPF over ``values``."""
        pool = list(values)
        if not pool:
            raise DistributionError("uniform VPF needs a nonempty domain")
        share = 1.0 / len(pool)
        return cls({v: share for v in pool})
