"""Probabilistic instances (Definition 3.11).

A :class:`ProbabilisticInstance` bundles a :class:`WeakInstance` with a
:class:`LocalInterpretation` and is the central object of the library:
the algebra's operators consume and produce probabilistic instances, and
the semantics layer maps them to distributions over compatible
semistructured instances.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.core.distributions import (
    ObjectProbabilityFunction,
    TabularVPF,
    ValueProbabilityFunction,
)
from repro.core.interpretation import LocalInterpretation
from repro.core.weak_instance import WeakInstance
from repro.errors import IncoherentModelError, ModelError
from repro.semistructured.graph import EdgeLabeledGraph, Label, Oid
from repro.semistructured.types import LeafType, Value


class ProbabilisticInstance:
    """A weak instance together with a local interpretation."""

    __slots__ = ("_weak", "_interp")

    def __init__(
        self, weak: WeakInstance, interpretation: LocalInterpretation | None = None
    ) -> None:
        self._weak = weak
        self._interp = interpretation if interpretation is not None else LocalInterpretation()

    # ------------------------------------------------------------------
    # Delegation to the weak instance
    # ------------------------------------------------------------------
    @property
    def weak(self) -> WeakInstance:
        """The underlying weak instance."""
        return self._weak

    @property
    def interpretation(self) -> LocalInterpretation:
        """The local interpretation ``p``."""
        return self._interp

    @property
    def root(self) -> Oid:
        """The root object id."""
        return self._weak.root

    @property
    def objects(self) -> frozenset[Oid]:
        """The object set ``V``."""
        return self._weak.objects

    def __contains__(self, oid: Oid) -> bool:
        return oid in self._weak

    def __len__(self) -> int:
        return len(self._weak)

    def lch(self, oid: Oid, label: Label) -> frozenset[Oid]:
        """``lch(oid, label)``."""
        return self._weak.lch(oid, label)

    def card(self, oid: Oid, label: Label):
        """``card(oid, label)``."""
        return self._weak.card(oid, label)

    def tau(self, oid: Oid) -> LeafType | None:
        """``tau(oid)``."""
        return self._weak.tau(oid)

    def is_leaf(self, oid: Oid) -> bool:
        """Whether ``oid`` is a leaf of the weak instance."""
        return self._weak.is_leaf(oid)

    def graph(self) -> EdgeLabeledGraph:
        """The weak instance graph ``G_W``."""
        return self._weak.graph()

    # ------------------------------------------------------------------
    # Local probability functions
    # ------------------------------------------------------------------
    def set_opf(self, oid: Oid, opf: ObjectProbabilityFunction) -> None:
        """Assign the OPF of a non-leaf object."""
        if self._weak.is_leaf(oid):
            raise ModelError(f"object {oid!r} is a leaf; assign a VPF instead")
        self._interp.set_opf(oid, opf)

    def set_vpf(self, oid: Oid, vpf: ValueProbabilityFunction) -> None:
        """Assign the VPF of a leaf object."""
        if not self._weak.is_leaf(oid):
            raise ModelError(f"object {oid!r} is not a leaf; assign an OPF instead")
        self._interp.set_vpf(oid, vpf)

    def opf(self, oid: Oid) -> ObjectProbabilityFunction | None:
        """The OPF of ``oid`` (``None`` for leaves or unassigned objects)."""
        return self._interp.opf(oid)

    def vpf(self, oid: Oid) -> ValueProbabilityFunction | None:
        """The explicitly assigned VPF of ``oid`` (``None`` if absent)."""
        return self._interp.vpf(oid)

    def effective_vpf(self, oid: Oid) -> ValueProbabilityFunction | None:
        """The VPF semantics actually uses for a leaf.

        Falls back to a point mass on the weak instance's default value
        when no VPF was assigned; returns ``None`` for leaves that carry
        neither (untyped structural leaves produced by projection).
        """
        explicit = self._interp.vpf(oid)
        if explicit is not None:
            return explicit
        default = self._weak.val(oid)
        if default is not None:
            return TabularVPF.point_mass(default)
        return None

    # ------------------------------------------------------------------
    # Validation (the Theorem 1 preconditions)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Full coherence check.

        The weak instance must validate (acyclic, rooted, satisfiable
        cardinalities, disjoint per-label ``lch``); every non-leaf needs a
        legal OPF whose support lies in ``PC(o)``; every valued leaf's VPF
        must be a legal distribution over ``dom(tau(o))``.
        """
        self._weak.validate()
        for oid in sorted(self._weak.non_leaves()):
            opf = self._interp.opf(oid)
            if opf is None:
                raise IncoherentModelError(f"non-leaf object {oid!r} has no OPF")
            try:
                for child_set, _ in opf.support():
                    if not self._weak.is_potential_child_set(oid, child_set):
                        raise IncoherentModelError(
                            f"OPF of {oid!r} assigns mass to "
                            f"{sorted(child_set)!r} which is not in PC({oid!r})"
                        )
                opf.validate()
            except IncoherentModelError:
                raise
            except ModelError as exc:
                raise IncoherentModelError(f"OPF of {oid!r}: {exc}") from exc
        for oid in sorted(self._weak.leaves()):
            vpf = self.effective_vpf(oid)
            leaf_type = self._weak.tau(oid)
            if vpf is None:
                continue  # structural leaf without values — allowed
            try:
                vpf.validate(leaf_type.domain if leaf_type is not None else None)
            except ModelError as exc:
                raise IncoherentModelError(f"VPF of {oid!r}: {exc}") from exc

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def copy(self) -> "ProbabilisticInstance":
        """A new instance over the same weak instance, with its own copy
        of the interpretation (the distributions themselves are shared).

        The weak instance is frozen first, so neither instance can change
        the structure under the other: a derivation that changes
        structure starts from ``ProbabilisticInstance(pi.weak.copy(),
        pi.interpretation.copy())`` instead.
        """
        self._weak.freeze()
        return ProbabilisticInstance(self._weak, self._interp.copy())

    def total_interpretation_entries(self) -> int:
        """Total OPF/VPF entries — the experiments' cost parameter."""
        return self._interp.total_entries()

    def non_leaves(self) -> frozenset[Oid]:
        """Objects with potential children."""
        return self._weak.non_leaves()

    def leaves(self) -> frozenset[Oid]:
        """Objects without potential children."""
        return self._weak.leaves()

    def valued_leaves(self) -> Iterator[Oid]:
        """Leaves that carry an effective VPF."""
        for oid in self._weak.leaves():
            if self.effective_vpf(oid) is not None:
                yield oid

    def __repr__(self) -> str:
        return (
            f"ProbabilisticInstance(root={self.root!r}, |V|={len(self)}, "
            f"entries={self.total_interpretation_entries()})"
        )
