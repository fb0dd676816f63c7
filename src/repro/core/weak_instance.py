"""Weak instances (Definition 3.4) and the weak instance graph (3.7).

A weak instance ``W = (V, lch, tau, val, card)`` describes which objects
*may* occur, which objects may be children of which (per label), type and
value annotations for leaves, and cardinality constraints on the number of
children per label.  It is the skeleton shared by all compatible
semistructured instances, and a probabilistic instance is a weak instance
plus a local interpretation.

The paper's Definition 3.4 includes a total ``val`` over leaves; because a
probabilistic instance replaces fixed leaf values by VPFs (and Definition
4.1 only requires ``val_S(o) in dom(tau_S(o))``), ``val`` is kept as a
partial map here and interpreted as a point-mass default when no VPF is
supplied.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

from repro.core.cardinality import CardinalityInterval
from repro.core.potential import (
    ChildSet,
    count_potential_child_sets,
    potential_child_sets,
    potential_l_child_sets,
)
from repro.errors import (
    CardinalityError,
    CyclicModelError,
    ModelError,
    OverlappingLabelError,
    TypeDomainError,
    UnknownObjectError,
)
from repro.semistructured.graph import EdgeLabeledGraph, Label, Oid
from repro.semistructured.types import LeafType, Value


class WeakInstance:
    """A weak instance with a designated root object."""

    __slots__ = (
        "_root", "_objects", "_lch", "_card", "_tau", "_val",
        "_graph_cache", "_tree", "_frozen",
    )

    def __init__(self, root: Oid) -> None:
        self._root = root
        self._objects: set[Oid] = {root}
        self._lch: dict[Oid, dict[Label, frozenset[Oid]]] = {root: {}}
        self._card: dict[tuple[Oid, Label], CardinalityInterval] = {}
        self._tau: dict[Oid, LeafType] = {}
        self._val: dict[Oid, Value] = {}
        self._graph_cache: EdgeLabeledGraph | None = None
        self._tree: bool | None = None
        self._frozen = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def freeze(self) -> None:
        """Make the instance a value: every setter raises from now on.

        The catalog freezes what it holds, and
        :meth:`ProbabilisticInstance.copy` what it shares; :meth:`copy`
        gives a mutable one.
        """
        self._frozen = True

    def _before_change(self, oid: Oid) -> None:
        """Refuse a change to a frozen instance; else forget the graph
        and the tree proof, which the change may invalidate."""
        if self._frozen:
            raise ModelError(
                f"cannot change object {oid!r}: the weak instance is frozen"
            )
        self._graph_cache = None
        self._tree = None

    def add_object(self, oid: Oid) -> None:
        """Add an object to ``V`` (idempotent)."""
        self._before_change(oid)
        if oid not in self._objects:
            self._objects.add(oid)
            self._lch[oid] = {}

    def set_lch(self, oid: Oid, label: Label, children: Iterable[Oid]) -> None:
        """Declare ``lch(oid, label)``; children are added to ``V`` on demand.

        An empty iterable removes the entry.  Children listed under another
        label of the same object raise :class:`OverlappingLabelError`.
        """
        self._require(oid)
        self._before_change(oid)
        pool = frozenset(children)
        for other_label, other_children in self._lch[oid].items():
            if other_label != label and pool & other_children:
                overlap = sorted(pool & other_children)
                raise OverlappingLabelError(
                    f"object {oid!r}: children {overlap} appear under both "
                    f"label {label!r} and label {other_label!r}"
                )
        if pool:
            for child in pool:
                self.add_object(child)
            self._lch[oid][label] = pool
        else:
            self._lch[oid].pop(label, None)

    def set_card(self, oid: Oid, label: Label, card: CardinalityInterval) -> None:
        """Set ``card(oid, label)``."""
        self._require(oid)
        self._before_change(oid)
        self._card[(oid, label)] = card

    def remove_object(self, oid: Oid) -> None:
        """Remove an object, its ``lch``/``card`` entries and annotations.

        References *to* the object from other objects' ``lch`` sets are
        not touched — callers must retract those first (see
        ``repro.algebra.updates.remove_object`` for the full operation).
        The root cannot be removed.
        """
        self._require(oid)
        if oid == self._root:
            raise ModelError("cannot remove the root object")
        self._before_change(oid)
        self._objects.discard(oid)
        self._lch.pop(oid, None)
        self._tau.pop(oid, None)
        self._val.pop(oid, None)
        self._card = {
            key: value for key, value in self._card.items() if key[0] != oid
        }

    def set_type(self, oid: Oid, leaf_type: LeafType) -> None:
        """Associate ``tau(oid)`` with a leaf object."""
        self._require(oid)
        self._before_change(oid)
        self._tau[oid] = leaf_type

    def set_val(self, oid: Oid, value: Value) -> None:
        """Associate a default value with a leaf (checked against the type)."""
        self._require(oid)
        self._before_change(oid)
        leaf_type = self._tau.get(oid)
        if leaf_type is not None:
            leaf_type.check(value)
        self._val[oid] = value

    def copy(self) -> "WeakInstance":
        """Deep, independent and mutable copy."""
        clone = WeakInstance.__new__(WeakInstance)
        clone._root = self._root
        clone._objects = set(self._objects)
        clone._lch = {o: dict(by_label) for o, by_label in self._lch.items()}
        clone._card = dict(self._card)
        clone._tau = dict(self._tau)
        clone._val = dict(self._val)
        clone._graph_cache = None
        clone._tree = None
        clone._frozen = False
        return clone

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def root(self) -> Oid:
        """The designated root object."""
        return self._root

    @property
    def objects(self) -> frozenset[Oid]:
        """The object set ``V``."""
        return frozenset(self._objects)

    def __contains__(self, oid: Oid) -> bool:
        return oid in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def lch(self, oid: Oid, label: Label) -> frozenset[Oid]:
        """``lch(oid, label)`` (empty when undeclared)."""
        self._require(oid)
        return self._lch[oid].get(label, frozenset())

    def lch_map(self, oid: Oid) -> Mapping[Label, frozenset[Oid]]:
        """All non-empty ``lch`` entries of ``oid``, keyed by label."""
        self._require(oid)
        return dict(self._lch[oid])

    def labels_of(self, oid: Oid) -> frozenset[Label]:
        """The labels under which ``oid`` has potential children."""
        self._require(oid)
        return frozenset(self._lch[oid])

    def potential_children(self, oid: Oid) -> frozenset[Oid]:
        """The union of ``lch(oid, l)`` over all labels."""
        self._require(oid)
        union: set[Oid] = set()
        for children in self._lch[oid].values():
            union |= children
        return frozenset(union)

    def card(self, oid: Oid, label: Label) -> CardinalityInterval:
        """``card(oid, label)``; defaults to ``[0, |lch(oid, label)|]``.

        The default encodes the paper's "no cardinality constraint"
        experimental setting.
        """
        self._require(oid)
        explicit = self._card.get((oid, label))
        if explicit is not None:
            return explicit
        return CardinalityInterval.unconstrained(len(self.lch(oid, label)))

    def has_explicit_card(self, oid: Oid, label: Label) -> bool:
        """Whether ``card(oid, label)`` was set explicitly."""
        return (oid, label) in self._card

    def card_entries(self) -> Iterator[tuple[Oid, Label, CardinalityInterval]]:
        """Iterate all explicitly declared cardinality constraints."""
        for (oid, label), card in self._card.items():
            yield oid, label, card

    def tau(self, oid: Oid) -> LeafType | None:
        """``tau(oid)``, or ``None`` if untyped."""
        self._require(oid)
        return self._tau.get(oid)

    def val(self, oid: Oid) -> Value | None:
        """The default value of ``oid``, or ``None``."""
        self._require(oid)
        return self._val.get(oid)

    def is_leaf(self, oid: Oid) -> bool:
        """A weak-instance leaf has no potential children at all."""
        self._require(oid)
        return not self._lch[oid]

    def leaves(self) -> frozenset[Oid]:
        """All leaf objects."""
        return frozenset(o for o in self._objects if not self._lch[o])

    def non_leaves(self) -> frozenset[Oid]:
        """All objects with at least one potential child."""
        return frozenset(o for o in self._objects if self._lch[o])

    def label_of_child(self, oid: Oid, child: Oid) -> Label:
        """The (unique, by disjointness) label under which ``child`` appears."""
        self._require(oid)
        for label, children in self._lch[oid].items():
            if child in children:
                return label
        raise ModelError(f"{child!r} is not a potential child of {oid!r}")

    # ------------------------------------------------------------------
    # Potential child sets
    # ------------------------------------------------------------------
    def potential_l_child_sets(self, oid: Oid, label: Label) -> list[ChildSet]:
        """``PL(oid, label)`` (Definition 3.5)."""
        return potential_l_child_sets(self.lch(oid, label), self.card(oid, label))

    def potential_child_sets(self, oid: Oid) -> Iterator[ChildSet]:
        """``PC(oid)`` (Definition 3.6), lazily enumerated."""
        by_label = self.lch_map(oid)
        cards = {label: self.card(oid, label) for label in by_label}
        return potential_child_sets(by_label, cards)

    def count_potential_child_sets(self, oid: Oid) -> int:
        """``|PC(oid)|`` without enumeration."""
        by_label = self.lch_map(oid)
        cards = {label: self.card(oid, label) for label in by_label}
        return count_potential_child_sets(by_label, cards)

    def is_potential_child_set(self, oid: Oid, child_set: ChildSet) -> bool:
        """Membership test ``child_set in PC(oid)`` without enumeration."""
        remaining = set(child_set)
        for label, children in self.lch_map(oid).items():
            part = remaining & children
            remaining -= part
            if len(part) not in self.card(oid, label):
                return False
        return not remaining

    # ------------------------------------------------------------------
    # The weak instance graph (Definition 3.7)
    # ------------------------------------------------------------------
    def graph(self) -> EdgeLabeledGraph:
        """The weak instance graph ``G_W`` (edges labeled by ``lch`` label).

        There is an edge ``(o, o')`` iff some potential child set of ``o``
        contains ``o'`` — equivalently iff ``o' in lch(o, l)`` for a label
        with ``card(o, l).max >= 1`` and satisfiable lower bound.  The
        graph is cached; a structural change forgets it.
        """
        if self._graph_cache is None:
            graph = EdgeLabeledGraph()
            for oid in self._objects:
                graph.add_vertex(oid)
            for oid, by_label in self._lch.items():
                for label, children in by_label.items():
                    card = self.card(oid, label)
                    if card.max >= 1 and card.min <= len(children):
                        for child in children:
                            graph.add_edge(oid, child, label)
            self._graph_cache = graph
        return self._graph_cache

    def is_acyclic(self) -> bool:
        """Definition 4.3: whether ``G_W`` is acyclic."""
        return self.graph().is_acyclic()

    def is_tree(self) -> bool:
        """Whether ``G_W`` is a tree rooted at the root object.

        Proven once per structure, like :meth:`graph`: the one place the
        O(V) check runs, so a frozen instance and every instance sharing
        it pay for it once.
        """
        if self._tree is None:
            self._tree = self.graph().is_tree(self._root)
        return self._tree

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural well-formedness.

        Verifies: the weak instance graph is acyclic and all objects are
        reachable from the root; every cardinality constraint is
        satisfiable; every leaf with a default value has it inside its
        type's domain; and (by construction) ``lch`` sets of distinct
        labels are disjoint.
        """
        for oid, by_label in self._lch.items():
            for label, children in by_label.items():
                card = self.card(oid, label)
                if card.min > len(children):
                    raise CardinalityError(
                        f"card({oid!r}, {label!r}).min = {card.min} exceeds "
                        f"|lch| = {len(children)}"
                    )
        graph = self.graph()
        if not graph.is_acyclic():
            raise CyclicModelError("the weak instance graph contains a cycle")
        reachable = graph.reachable_from(self._root)
        unreachable = self._objects - reachable
        if unreachable:
            raise ModelError(
                "objects can never occur in a compatible instance (unreachable "
                f"from root {self._root!r}): {sorted(unreachable)}"
            )
        for oid, value in self._val.items():
            leaf_type = self._tau.get(oid)
            if leaf_type is None:
                raise TypeDomainError(f"object {oid!r} has a value but no type")
            leaf_type.check(value)

    def _require(self, oid: Oid) -> None:
        if oid not in self._objects:
            raise UnknownObjectError(oid)

    def __repr__(self) -> str:
        return f"WeakInstance(root={self._root!r}, |V|={len(self._objects)})"
