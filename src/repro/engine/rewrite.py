"""Rule-based plan rewriting.

Each rule is a function ``rule(node, cost) -> PlanNode | None`` returning
a replacement for ``node`` (or ``None`` when it does not apply).  The
optimizer applies the rules bottom-up to a fixpoint.  Every rule is an
*equivalence* on the global semantics — the randomized parity suite
(``tests/test_engine_parity.py``) checks each one against direct calls
to the operators on generated instances.

The rules and their soundness arguments:

* :func:`collapse_adjacent_projections` — ancestor (and descendant)
  projection is idempotent: a path's matches are reached through chains
  the projection itself preserves, so re-matching the same path in the
  projected world finds exactly the same objects.  Single projection is
  only idempotent for one-label paths (longer paths cannot re-match the
  flattened result).

* :func:`push_selection_below_projection` — for a chain selection whose
  path equals the ancestor projection's path, the condition ``o in p``
  (and ``val(o) = v``) has the same truth value in a world and in its
  projection: the chain to a match survives projection, and nothing the
  condition inspects is removed.  Filtering then projecting therefore
  equals projecting then filtering.  Cardinality clauses are *not*
  pushable (a match's children do not survive an ancestor projection),
  and neither are selections on other paths.

* :func:`reorder_product_by_size` — the cartesian product merges the two
  roots symmetrically (children union, OPF product), so the operands
  commute; the rule canonicalizes the smaller estimated input to the
  left, which also normalizes ``A x B`` and ``B x A`` onto one cache
  fingerprint when an explicit root id is given.  The default root id is
  pinned from the original order first so the result is unchanged.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.engine.cost import CostModel
from repro.engine.plan import PlanNode, ProductNode, ProjectNode, SelectNode
from repro.obs.metrics import current_registry
from repro.obs.tracing import current_tracer

RewriteRule = Callable[[PlanNode, Optional[CostModel]], Optional[PlanNode]]


def collapse_adjacent_projections(
    node: PlanNode, cost: CostModel | None = None
) -> PlanNode | None:
    """``Π_p(Π_p(I)) -> Π_p(I)`` for idempotent projection kinds."""
    if not (isinstance(node, ProjectNode) and isinstance(node.child, ProjectNode)):
        return None
    inner = node.child
    if node.kind != inner.kind or node.path != inner.path:
        return None
    if node.kind == "single" and len(node.path.labels) != 1:
        return None
    return inner


def push_selection_below_projection(
    node: PlanNode, cost: CostModel | None = None
) -> PlanNode | None:
    """``σ_{p=o}(Π^anc_p(I)) -> Π^anc_p(σ_{p=o}(I))``.

    Applies the paper's Section 6 thesis — do the conditioning as
    per-object local computation on the base instance — and exposes the
    bare selection as a shareable, cacheable sub-plan.  Guarded to the
    provably equivalent case: ancestor projection, selection path equal
    to the projection path, no cardinality clause.
    """
    if not (isinstance(node, SelectNode) and isinstance(node.child, ProjectNode)):
        return None
    projection = node.child
    if projection.kind != "ancestor" or projection.path != node.path:
        return None
    if node.card_label is not None:
        return None
    if node.prob_op is not None:
        # A probability guard asserts on the condition probability in the
        # selection's *input*; conservatively keep it above the projection.
        return None
    pushed = SelectNode(node.path, node.oid, projection.child, node.value)
    return ProjectNode(projection.kind, projection.path, pushed)


def reorder_product_by_size(
    node: PlanNode, cost: CostModel | None = None
) -> PlanNode | None:
    """Put the smaller estimated product operand first (canonical order)."""
    if not isinstance(node, ProductNode) or cost is None:
        return None
    left = cost.estimate(node.left)
    right = cost.estimate(node.right)
    if left.objects <= right.objects:
        return None
    new_root = node.new_root
    if new_root is None:
        # Pin the default root id so swapping does not rename the result.
        new_root = f"{left.root}x{right.root}"
    return ProductNode(node.right, node.left, new_root)


DEFAULT_RULES: tuple[RewriteRule, ...] = (
    collapse_adjacent_projections,
    push_selection_below_projection,
    reorder_product_by_size,
)


def optimize(
    plan: PlanNode,
    cost: CostModel | None = None,
    rules: tuple[RewriteRule, ...] = DEFAULT_RULES,
    max_passes: int = 10,
    trace: list[tuple[str, PlanNode, PlanNode]] | None = None,
) -> tuple[PlanNode, tuple[str, ...]]:
    """Apply the rules bottom-up to a fixpoint.

    Returns the rewritten plan and the names of the rules that fired, in
    application order (possibly with repeats).  When a ``trace`` list is
    passed, every firing appends ``(rule_name, before, after)`` — the
    raw material for the static checker's machine-checkable soundness
    justifications (:mod:`repro.check.rewrites`).

    Observability: the whole fixpoint runs inside an
    ``engine.optimize`` span on the ambient tracer, each firing attaches
    an ``engine.rewrite.<rule>`` child span with the before/after
    labels, and the ambient metrics registry counts firings per rule
    (``engine.rewrite.rule.<rule>``) plus an ``engine.rewrite.optimize_s``
    latency histogram.
    """
    applied: list[str] = []
    tracer = current_tracer()
    registry = current_registry()

    def rewrite(node: PlanNode) -> PlanNode:
        children = node.children()
        if children:
            new_children = tuple(rewrite(child) for child in children)
            if new_children != children:
                node = node.with_children(new_children)
        changed = True
        while changed:
            changed = False
            for rule in rules:
                rule_start = time.perf_counter()
                replacement = rule(node, cost)
                rule_s = time.perf_counter() - rule_start
                if replacement is not None and replacement != node:
                    applied.append(rule.__name__)
                    tracer.event(
                        f"engine.rewrite.{rule.__name__}",
                        wall_s=rule_s,
                        before=node.label(),
                        after=replacement.label(),
                    )
                    registry.counter(
                        f"engine.rewrite.rule.{rule.__name__}"
                    ).inc()
                    if trace is not None:
                        trace.append((rule.__name__, node, replacement))
                    node = replacement
                    changed = True
        return node

    with tracer.span("engine.optimize") as span:
        for _ in range(max_passes):
            before = plan
            plan = rewrite(plan)
            if plan == before:
                break
        span.attributes["applied"] = len(applied)
    registry.histogram("engine.rewrite.optimize_s").observe(span.wall_s)
    return plan, tuple(applied)
