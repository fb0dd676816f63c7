"""Local interpretations (Definition 3.10).

A local interpretation ``p`` maps every non-leaf object to an OPF and every
leaf object to a VPF.  It is kept as a thin, explicit container so the
algebra can copy and rewrite it independently of the weak instance.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

from repro.core.distributions import (
    ObjectProbabilityFunction,
    TabularVPF,
    ValueProbabilityFunction,
)
from repro.errors import ModelError
from repro.semistructured.graph import Oid
from repro.semistructured.types import Value


class LocalInterpretation:
    """Per-object local probability functions (OPFs and VPFs)."""

    __slots__ = ("_opf", "_vpf", "_frozen")

    def __init__(
        self,
        opfs: Mapping[Oid, ObjectProbabilityFunction] | None = None,
        vpfs: Mapping[Oid, ValueProbabilityFunction] | None = None,
    ) -> None:
        self._opf: dict[Oid, ObjectProbabilityFunction] = dict(opfs or {})
        self._vpf: dict[Oid, ValueProbabilityFunction] = dict(vpfs or {})
        overlap = set(self._opf) & set(self._vpf)
        if overlap:
            raise ModelError(
                f"objects cannot have both an OPF and a VPF: {sorted(overlap)}"
            )
        self._frozen = False

    def freeze(self) -> None:
        """Make the interpretation a value: every setter raises from now
        on.  The catalog freezes what it holds (with its weak instance,
        :meth:`ProbabilisticInstance.freeze`); :meth:`copy` gives a
        mutable one."""
        self._frozen = True

    def _before_change(self, oid: Oid) -> None:
        if self._frozen:
            raise ModelError(
                f"cannot change object {oid!r}: the interpretation is frozen"
            )

    def set_opf(self, oid: Oid, opf: ObjectProbabilityFunction) -> None:
        """Assign the OPF of a non-leaf object."""
        self._before_change(oid)
        if oid in self._vpf:
            raise ModelError(f"object {oid!r} already has a VPF")
        self._opf[oid] = opf

    def set_vpf(self, oid: Oid, vpf: ValueProbabilityFunction) -> None:
        """Assign the VPF of a leaf object."""
        self._before_change(oid)
        if oid in self._opf:
            raise ModelError(f"object {oid!r} already has an OPF")
        self._vpf[oid] = vpf

    def set_value(self, oid: Oid, value: Value) -> None:
        """Shorthand: a certain leaf value becomes a point-mass VPF."""
        self.set_vpf(oid, TabularVPF.point_mass(value))

    def opf(self, oid: Oid) -> ObjectProbabilityFunction | None:
        """The OPF of ``oid``, or ``None``."""
        return self._opf.get(oid)

    def vpf(self, oid: Oid) -> ValueProbabilityFunction | None:
        """The VPF of ``oid``, or ``None``."""
        return self._vpf.get(oid)

    def drop(self, oid: Oid) -> None:
        """Remove any local probability function attached to ``oid``."""
        self._before_change(oid)
        self._opf.pop(oid, None)
        self._vpf.pop(oid, None)

    def opf_items(self) -> Iterator[tuple[Oid, ObjectProbabilityFunction]]:
        """Iterate ``(oid, OPF)`` pairs."""
        return iter(self._opf.items())

    def vpf_items(self) -> Iterator[tuple[Oid, ValueProbabilityFunction]]:
        """Iterate ``(oid, VPF)`` pairs."""
        return iter(self._vpf.items())

    def copy(self) -> "LocalInterpretation":
        """Shallow, mutable copy of the maps (the distributions themselves
        are immutable in practice and shared).  The constructor's overlap check is for
        outside input: :meth:`set_opf` / :meth:`set_vpf` already keep
        these maps disjoint."""
        clone = LocalInterpretation.__new__(LocalInterpretation)
        clone._opf = dict(self._opf)
        clone._vpf = dict(self._vpf)
        clone._frozen = False
        return clone

    def total_entries(self) -> int:
        """Total stored entries across every OPF and VPF.

        This is the paper's experimental cost parameter ("about 28000 -
        200000 p(o) entries are processed").
        """
        return sum(opf.entry_count() for opf in self._opf.values()) + sum(
            vpf.entry_count() for vpf in self._vpf.values()
        )

    def __len__(self) -> int:
        return len(self._opf) + len(self._vpf)

    def __repr__(self) -> str:
        return f"LocalInterpretation({len(self._opf)} OPFs, {len(self._vpf)} VPFs)"
