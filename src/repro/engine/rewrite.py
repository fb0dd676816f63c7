"""Rule-based plan rewriting.

Each rule is a function ``rule(node, cost) -> PlanNode | None`` returning
a replacement for ``node`` (or ``None`` when it does not apply).  The
optimizer applies the rules bottom-up to a fixpoint.  Every rule is an
*equivalence* on the global semantics — the randomized parity suite
(``tests/test_engine_parity.py``) checks each one against direct calls
to the operators on generated instances.

The rule and its soundness argument:

* :func:`reorder_product_by_size` — the cartesian product merges the two
  roots symmetrically (children union, OPF product), so the operands
  commute; the rule canonicalizes the smaller estimated input to the
  left, which also normalizes ``A x B`` and ``B x A`` onto one
  fingerprint when an explicit root id is given.  The default root id is
  pinned from the original order first so the result is unchanged.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.engine.cost import CostModel
from repro.engine.plan import PlanNode, ProductNode
from repro.obs.metrics import current_registry
from repro.obs.tracing import current_tracer

RewriteRule = Callable[[PlanNode, Optional[CostModel]], Optional[PlanNode]]


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


DEFAULT_RULES: tuple[RewriteRule, ...] = (reorder_product_by_size,)


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
