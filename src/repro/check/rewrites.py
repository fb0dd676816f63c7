"""Machine-checkable soundness justifications for plan rewrites.

The optimizer's rules (:mod:`repro.engine.rewrite`) are equivalences
*only under guard conditions* (ancestor kind, equal paths, no
cardinality clause, ...).  This module re-verifies those guards on the
actual ``(before, after)`` pairs a rewrite trace records, so every
applied rewrite carries a justification that was *checked against the
plans*, not merely asserted in a docstring.  A justification that fails
to re-verify is a bug in the optimizer and surfaces as a ``PX250``
error; sound rewrites surface as ``PX251`` info annotations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.check.diagnostics import ERROR, INFO, Diagnostic
from repro.engine.plan import PlanNode, ProductNode, ProjectNode, SelectNode

#: Diagnostic codes for the rewrite checks.
UNSOUND_REWRITE = "PX250"
JUSTIFIED_REWRITE = "PX251"


@dataclass(frozen=True)
class RewriteJustification:
    """The re-verified soundness record of one rewrite application."""

    rule: str
    holds: bool
    premise: str           # the guard condition that was (re-)checked
    argument: str          # why the guard implies semantic equivalence

    def __str__(self) -> str:
        status = "sound" if self.holds else "UNSOUND"
        return f"{self.rule}: {status} — {self.premise}; {self.argument}"


def _justify_collapse(before: PlanNode, after: PlanNode) -> RewriteJustification:
    argument = (
        "projection re-matches the path through chains it itself preserves, "
        "so the second application finds exactly the same objects"
    )
    holds = (
        isinstance(before, ProjectNode)
        and isinstance(before.child, ProjectNode)
        and before.kind == before.child.kind
        and before.path == before.child.path
        and (before.kind != "single" or len(before.path.labels) == 1)
        and after == before.child
    )
    return RewriteJustification(
        "collapse_adjacent_projections", holds,
        "inner and outer projections share kind and path "
        "(single projection additionally requires a one-label path)",
        argument,
    )


def _justify_push(before: PlanNode, after: PlanNode) -> RewriteJustification:
    argument = (
        "the chain to a match survives ancestor projection and the condition "
        "inspects nothing the projection removes, so filtering commutes with "
        "projecting"
    )
    holds = (
        isinstance(before, SelectNode)
        and isinstance(before.child, ProjectNode)
        and before.child.kind == "ancestor"
        and before.child.path == before.path
        and before.card_label is None
        and before.prob_op is None
        and isinstance(after, ProjectNode)
        and after.kind == "ancestor"
        and after.path == before.path
        and isinstance(after.child, SelectNode)
        and after.child.path == before.path
        and after.child.oid == before.oid
        and after.child.value == before.value
        and after.child.card_label is None
        and after.child.child == before.child.child
    )
    return RewriteJustification(
        "push_selection_below_projection", holds,
        "ancestor projection, selection path equals projection path, and no "
        "cardinality clause or probability guard",
        argument,
    )


def _justify_reorder(before: PlanNode, after: PlanNode) -> RewriteJustification:
    argument = (
        "the product merges the two roots symmetrically (children union, OPF "
        "product), so the operands commute once the result root id is pinned"
    )
    holds = (
        isinstance(before, ProductNode)
        and isinstance(after, ProductNode)
        and after.left == before.right
        and after.right == before.left
        and (
            after.new_root == before.new_root
            if before.new_root is not None
            else after.new_root is not None     # default root id must be pinned
        )
    )
    return RewriteJustification(
        "reorder_product_by_size", holds,
        "operands swapped exactly once and the result root id is preserved "
        "(explicit) or pinned from the original order (default)",
        argument,
    )


_JUSTIFIERS = {
    "collapse_adjacent_projections": _justify_collapse,
    "push_selection_below_projection": _justify_push,
    "reorder_product_by_size": _justify_reorder,
}


def justify_rewrites(
    trace: list[tuple[str, PlanNode, PlanNode]]
) -> list[RewriteJustification]:
    """Re-verify every rewrite in an ``optimize(..., trace=...)`` trace."""
    justifications: list[RewriteJustification] = []
    for rule, before, after in trace:
        justifier = _JUSTIFIERS.get(rule)
        if justifier is None:
            justifications.append(RewriteJustification(
                rule, False, "no registered justifier for this rule",
                "custom rules need an entry in repro.check.rewrites._JUSTIFIERS",
            ))
        else:
            justifications.append(justifier(before, after))
    return justifications


def rewrite_diagnostics(
    trace: list[tuple[str, PlanNode, PlanNode]],
    subject: str | None = None,
) -> list[Diagnostic]:
    """Render a rewrite trace as ``PX250``/``PX251`` diagnostics."""
    diagnostics: list[Diagnostic] = []
    for justification in justify_rewrites(trace):
        if justification.holds:
            diagnostics.append(Diagnostic(
                code=JUSTIFIED_REWRITE, severity=INFO,
                message=str(justification), subject=subject,
            ))
        else:
            diagnostics.append(Diagnostic(
                code=UNSOUND_REWRITE, severity=ERROR,
                message=str(justification), subject=subject,
                hint="the optimizer applied a rule outside its guard; "
                     "report this as an engine bug",
            ))
    return diagnostics
