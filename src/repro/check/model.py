"""The model pass: exhaustive instance linting (``PX1xx``).

``ProbabilisticInstance.validate()`` raises on the *first* problem,
which is what library code wants; a human repairing a hand-written or
imported model wants *every* problem at once.  :func:`lint_instance`
walks the whole model and returns a list of :class:`Issue` records,
ordered by severity (errors first), then instance-level findings
(``oid is None``), then object id, then code.

Every issue carries both a mnemonic ``code`` (stable since the original
``repro.core.lint``) and a stable ``px`` diagnostic code in the
``PX1xx`` range; :func:`check_instance` converts issues into the shared
:class:`~repro.check.diagnostics.Diagnostic` format and appends a
``PX190`` summary annotation (absorbing ``repro.analysis.summarize``).

Severities:

* ``error`` — the model has no coherent semantics (Theorem 1 fails).
* ``warning`` — legal but suspicious: dead objects, unreachable mass,
  children that can never be chosen, degenerate distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.check.diagnostics import ERROR, INFO, WARNING, Diagnostic
from repro.core.distributions import PROBABILITY_TOLERANCE
from repro.core.instance import ProbabilisticInstance
from repro.semistructured.graph import Oid

#: Mnemonic lint code -> stable PX1xx diagnostic code.
PX_CODES: dict[str, str] = {
    "cyclic": "PX101",
    "unsatisfiable-card": "PX102",
    "missing-opf": "PX103",
    "negative-mass": "PX104",
    "outside-pc": "PX105",
    "bad-total": "PX106",
    "outside-domain": "PX107",
    "unreachable": "PX110",
    "dead-label": "PX111",
    "never-chosen": "PX112",
    "typed-no-vpf": "PX113",
    "vpf-no-type": "PX114",
    "summary": "PX190",
}

_HINTS: dict[str, str] = {
    "cyclic": "remove an edge; Definition 4.3 requires an acyclic weak graph",
    "unsatisfiable-card": "lower card.min or add potential children",
    "missing-opf": "assign an OPF with set_opf()",
    "negative-mass": "probabilities must be >= 0",
    "outside-pc": "restrict the OPF support to PC(o)",
    "bad-total": "renormalize the distribution to total mass 1",
    "outside-domain": "extend dom(tau(o)) or fix the VPF support",
    "unreachable": "connect the object to the root or remove it",
    "dead-label": "raise card.max or drop the lch entry",
    "never-chosen": "give the child nonzero inclusion mass or remove it",
    "typed-no-vpf": "assign a VPF or a default value",
    "vpf-no-type": "declare tau(o) with set_type()",
}

_SEVERITY_RANK = {ERROR: 0, WARNING: 1, INFO: 2}


@dataclass(frozen=True)
class Issue:
    """One linting finding.

    ``code`` is the historical mnemonic; ``px`` is the stable ``PX1xx``
    diagnostic code (derived automatically from the mnemonic).
    """

    severity: str
    oid: Oid | None
    code: str
    message: str
    px: str = field(default="")

    def __post_init__(self) -> None:
        if not self.px:
            try:
                object.__setattr__(self, "px", PX_CODES[self.code])
            except KeyError:
                raise ValueError(
                    f"unknown lint mnemonic {self.code!r}: add it to "
                    "repro.check.model.PX_CODES before emitting it"
                ) from None

    def __str__(self) -> str:
        where = f" [{self.oid}]" if self.oid is not None else ""
        return f"{self.severity}{where} {self.px}/{self.code}: {self.message}"


def lint_instance(pi: ProbabilisticInstance) -> list[Issue]:
    """Collect every problem in a probabilistic instance.

    The result is ordered by severity (errors before warnings), then
    instance-level findings, then object id, then PX code.
    """
    issues: list[Issue] = []
    weak = pi.weak
    graph = weak.graph()

    # -- structure ------------------------------------------------------
    if not graph.is_acyclic():
        issues.append(Issue(
            ERROR, None, "cyclic",
            "the weak instance graph contains a cycle (Definition 4.3)",
        ))
    else:
        reachable = graph.reachable_from(weak.root)
        for oid in sorted(weak.objects - reachable):
            issues.append(Issue(
                WARNING, oid, "unreachable",
                "can never occur in a compatible world (unreachable from root)",
            ))

    for oid in sorted(weak.objects):
        for label in sorted(weak.labels_of(oid)):
            card = weak.card(oid, label)
            pool = weak.lch(oid, label)
            if card.min > len(pool):
                issues.append(Issue(
                    ERROR, oid, "unsatisfiable-card",
                    f"card({oid}, {label}).min = {card.min} exceeds "
                    f"|lch| = {len(pool)}",
                ))
            if card.max == 0 and pool:
                issues.append(Issue(
                    WARNING, oid, "dead-label",
                    f"card({oid}, {label}).max = 0: the {len(pool)} potential "
                    f"{label}-children can never be chosen",
                ))

    # -- local probability functions -------------------------------------
    for oid in sorted(weak.non_leaves()):
        opf = pi.opf(oid)
        if opf is None:
            issues.append(Issue(ERROR, oid, "missing-opf", "non-leaf without an OPF"))
            continue
        total = 0.0
        chosen: set[Oid] = set()
        for child_set, probability in opf.support():
            total += probability
            chosen |= child_set
            if probability < 0.0:
                issues.append(Issue(
                    ERROR, oid, "negative-mass",
                    f"OPF entry {sorted(child_set)!r} has negative probability",
                ))
            if not weak.is_potential_child_set(oid, child_set):
                issues.append(Issue(
                    ERROR, oid, "outside-pc",
                    f"OPF assigns mass to {sorted(child_set)!r} outside PC({oid})",
                ))
        if not math.isclose(total, 1.0, abs_tol=PROBABILITY_TOLERANCE, rel_tol=1e-9):
            issues.append(Issue(
                ERROR, oid, "bad-total", f"OPF sums to {total!r}, expected 1"
            ))
        for child in sorted(weak.potential_children(oid) - chosen):
            issues.append(Issue(
                WARNING, oid, "never-chosen",
                f"potential child {child!r} has zero inclusion probability",
            ))

    for oid in sorted(weak.leaves()):
        leaf_type = weak.tau(oid)
        vpf = pi.effective_vpf(oid)
        if vpf is None:
            if leaf_type is not None:
                issues.append(Issue(
                    WARNING, oid, "typed-no-vpf",
                    f"leaf has type {leaf_type.name!r} but no value distribution",
                ))
            continue
        if leaf_type is None:
            issues.append(Issue(
                WARNING, oid, "vpf-no-type",
                "leaf has a value distribution but no declared type",
            ))
        total = 0.0
        for value, probability in vpf.support():
            total += probability
            if probability < 0.0:
                issues.append(Issue(
                    ERROR, oid, "negative-mass",
                    f"VPF entry {value!r} has negative probability",
                ))
            if leaf_type is not None and value not in leaf_type:
                issues.append(Issue(
                    ERROR, oid, "outside-domain",
                    f"VPF assigns mass to {value!r} outside dom({leaf_type.name})",
                ))
        if not math.isclose(total, 1.0, abs_tol=PROBABILITY_TOLERANCE, rel_tol=1e-9):
            issues.append(Issue(
                ERROR, oid, "bad-total", f"VPF sums to {total!r}, expected 1"
            ))

    # Severity first; within a severity, instance-level findings (no
    # oid), then object id, then PX code — exactly the documented order.
    issues.sort(key=lambda i: (
        _SEVERITY_RANK[i.severity], i.oid is not None, i.oid or "", i.px,
    ))
    return issues


def has_errors(issues: list[Issue]) -> bool:
    """Whether any finding is severity ``error``."""
    return any(issue.severity == ERROR for issue in issues)


def format_issues(issues: list[Issue]) -> str:
    """Render findings one per line ("clean" when empty)."""
    if not issues:
        return "clean"
    return "\n".join(str(issue) for issue in issues)


def issue_to_diagnostic(issue: Issue, subject: str | None = None) -> Diagnostic:
    """Convert a lint :class:`Issue` to the shared diagnostic format."""
    return Diagnostic(
        code=issue.px,
        severity=issue.severity,
        message=f"{issue.code}: {issue.message}",
        subject=subject,
        oid=str(issue.oid) if issue.oid is not None else None,
        hint=_HINTS.get(issue.code),
    )


def check_instance(
    pi: ProbabilisticInstance,
    name: str | None = None,
    summary: bool = True,
) -> list[Diagnostic]:
    """Run the model pass over one instance.

    Returns the lint findings as diagnostics, plus (with ``summary``)
    one ``PX190`` info annotation with the shape/uncertainty summary of
    ``repro.analysis.summarize``.
    """
    diagnostics = [issue_to_diagnostic(issue, name) for issue in lint_instance(pi)]
    if summary:
        try:
            from repro.analysis import summarize

            diagnostics.append(Diagnostic(
                code=PX_CODES["summary"], severity=INFO,
                message=str(summarize(pi)), subject=name,
            ))
        except Exception as exc:     # summaries must never mask lint findings
            diagnostics.append(Diagnostic(
                code=PX_CODES["summary"], severity=INFO,
                message=f"summary unavailable: {exc}", subject=name,
            ))
    return diagnostics
