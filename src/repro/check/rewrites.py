"""Machine-checkable soundness justifications for plan rewrites.

The optimizer's rules (:mod:`repro.engine.rewrite`) are equivalences
*only under guard conditions* (operands swapped once, result root id
pinned).  This module re-verifies those guards on the
actual ``(before, after)`` pairs a rewrite trace records, so every
applied rewrite carries a justification that was *checked against the
plans*, not merely asserted in a docstring.  A justification that fails
to re-verify is a bug in the optimizer and surfaces as a ``PX250``
error; sound rewrites surface as ``PX251`` info annotations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.check.diagnostics import ERROR, INFO, Diagnostic
from repro.engine.plan import PlanNode, ProductNode

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
