"""The instrumented plan executor.

:class:`Engine` ties the pieces together: it translates PXQL statements
into plans and executes them bottom-up, as written, with per-node
wall-clock timings and output cardinalities.  The plan the static
checker certifies is the plan that runs, and nothing about an execution
is remembered between statements: the catalog is the only memory.  A
scan of a registered name reads that instance — a saved ``PROJECT ...
AS m`` is an ordinary instance (the algebra is closed), so a statement
over ``m`` is answered from it, never re-derived from ``m``'s base.  The
one result cache is the interpreter's statement tier.

The catalog generation is read once per statement and threaded to every
token taken for it, so one statement sees one catalog snapshot.

Every plan node execution opens one ``engine.node.<label>`` span on the
engine's tracer, and that span is the node's only record: its wall and
CPU time, the ``strategy`` that answered it, the ``objects`` it produced
and a selection's ``condition_probability``, with the operator itself
timed by an ``engine.apply`` child span and the child nodes' spans
nested beneath.  ``EXPLAIN ANALYZE`` and ``PROFILE`` render these spans
with the one renderer (:func:`repro.obs.export.render_span_tree`), and
the certificate check after every certified execution reads them
(:func:`repro.check.absint.verify_execution`).  The engine also owns a
:class:`repro.obs.metrics.MetricsRegistry` covering operator latencies
and objects scanned; both are made *ambient* during execution so the
Section 6 query algorithms and the world sampler report into the same
trace and registry.
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    # pxql -> engine, and check -> engine.plan -> engine (this module):
    # nothing of repro.check is imported here at run time.  Its names
    # appear only in annotations; the runtime imports live inside the
    # methods that need them.
    from repro.check.absint import (
        CardInterval,
        NodeFacts,
        PlanCertificate,
        ProbInterval,
    )
    from repro.pxql import ast

from repro.algebra.product import cartesian_product
from repro.algebra.projection_more import (
    descendant_projection_local,
    single_projection_local,
)
from repro.algebra.projection_prob import (
    ancestor_projection_local,
    epsilon_pass,
    instance_from_epsilon_pass,
    root_epsilon,
)
from repro.algebra.selection import (
    ObjectCardinalityCondition,
    ObjectCondition,
    ObjectValueCondition,
    select_local,
)
from repro.core.cardinality import CardinalityInterval
from repro.core.instance import ProbabilisticInstance
from repro.engine.cost import CostModel, Estimate, measure
from repro.engine.plan import (
    PlanError,
    PlanNode,
    ProductNode,
    ProjectNode,
    QueryNode,
    ScanNode,
    SelectNode,
    fingerprint,
    plan_statement,
    scan_names,
    walk,
)
from repro.errors import BudgetExceeded
from repro.index import match_path_indexed, snapshot_of
from repro.index.columnar import ColumnarInstance
from repro.obs.export import NODE_SPAN, _tree_lines, render_span_tree
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.tracing import Span, Tracer, use_tracer
from repro.queries.aggregates import (
    expected_match_count,
    match_count_distribution,
)
from repro.queries.chain import chain_probability
from repro.queries.engine import QueryEngine
from repro.queries.point import point_query
from repro.resilience.budget import current_budget
from repro.semistructured.paths import PathMatch
from repro.storage.derived import (
    cache_token,
    catalog_generation,
    fetch,
    reading_at,
)

_PROJECTION_OPERATORS = {
    "ancestor": ancestor_projection_local,
    "descendant": descendant_projection_local,
    "single": single_projection_local,
}

#: Constant results of the numeric query kinds when the certificate
#: proves the path matches nothing with certainty (factories, so dict
#: results are never shared between statements).
_SKIP_RESULTS = {
    "exists": lambda: 0.0,
    "count": lambda: 0.0,
    "point": lambda: 0.0,
    "dist": lambda: {0: 1.0},
}


@dataclass
class ExecutionResult:
    """The outcome of one plan execution."""

    value: object
    plan: PlanNode
    #: The root plan node's ``engine.node.<label>`` span: the per-node
    #: record of the whole execution (child nodes' spans nest beneath).
    span: Span
    #: The abstract-interpretation certificate of the plan
    #: (None when the pass is off or failed; see ``Engine(absint=...)``).
    certificate: PlanCertificate | None = None
    #: Interval violations the node spans show against the certificate
    #: (checked on every certified execution; must stay empty).
    violations: tuple[str, ...] = ()


class Engine:
    """Planner + instrumented executor.

    A plan is executed bottom-up as written; how a path operator
    locates its path — on the catalog's columnar snapshot or by the
    walk — is not part of the plan but decided when the operator runs,
    from what it can observe (:meth:`_strategy`).

    Each accelerator fails open where it runs, so the answer is always
    the Section 6 algorithms' own: a failed certificate pass leaves the
    plan uncertified (:meth:`_certify`), and a snapshot that cannot be
    fetched or evaluated on hands the operator to the walk
    (:meth:`_apply`, counted in ``index.fallbacks``; a failed evaluation
    also in ``resilience.fallbacks``).

    The engine keeps no result between executions (the interpreter's
    statement tier is the one result cache).  The state *derived from an
    instance* — its columnar snapshot with its match memo, its
    dataguide, its cost measurement — lives on the frozen instance
    (:func:`repro.storage.derived.derived`), so every engine, pool
    worker and checker pass that reads the instance reads the same one.

    Args:
        database: the catalog plans scan (must expose ``get`` and
            ``version``; :class:`repro.storage.database.Database` does).
        absint: run the abstract interpreter (:mod:`repro.check.absint`)
            over every accelerated plan.  ``EXPLAIN`` renders the
            certificate's intervals as ``est_rows=[lo,hi] prob=[l,u]``,
            and plans whose result the certificate proves constant-empty
            short-circuit without touching an instance (counted in
            ``check.absint_skips``).
            The pass is advisory: any failure inside it falls back to
            normal execution (counted in ``check.absint_errors``).
        disk_cache: accepted and ignored (``benchmarks/e2e`` passes it).
        tracer: span collector for executions (own instance if omitted;
            pass a shared one to join a larger trace, e.g. the PXQL
            interpreter's statement spans).  It must be enabled: the
            node spans it links are the execution's record.
        metrics: metrics registry (own instance if omitted).  Operator
            latency histograms and objects-scanned totals land here;
            during execution it is also the ambient registry for the
            query algorithms and the sampler.
    """

    def __init__(
        self,
        database,
        absint: bool = True,
        disk_cache: bool | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if tracer is not None and not tracer.enabled:
            raise ValueError(
                "Engine needs an enabled Tracer: a disabled one links no "
                "node spans, and they are the execution's record"
            )
        self.database = database
        self.absint = absint
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cost = CostModel(database)
        #: The static checker's certificate of the statement about to
        #: run, under its cache key (:meth:`adopt_certificate`).
        self._adopted: tuple[tuple, PlanCertificate] | None = None

    @contextmanager
    def _ambient(self):
        """Make this engine's tracer and registry ambient for a region."""
        with use_tracer(self.tracer), use_registry(self.metrics):
            yield

    # ------------------------------------------------------------------
    # Keys and versions
    # ------------------------------------------------------------------
    def versions_of(self, plan: PlanNode) -> tuple[tuple[str, int], ...]:
        """``(name, version)`` for every instance the plan scans
        (``benchmarks/e2e`` passes it to :meth:`record_lineage`)."""
        return tuple(
            (name, self.database.version(name)) for name in scan_names(plan)
        )

    def cache_key(self, plan: PlanNode, generation: int | None = None) -> tuple:
        """The versioned key of a plan.

        The plan's fingerprint plus the catalog token of every scanned
        instance: a name's version moves when this process re-registers
        it, its epoch when another process mutates it in the shared
        catalog directory — which is what lets interpreters in sibling
        processes over one directory keep or invalidate what they
        remember correctly, name by name.  ``generation`` is the
        value the running statement already read; omitted, the catalog
        is asked once.
        """
        if generation is None:
            generation = catalog_generation(self.database)
        return (
            fingerprint(plan),
            tuple(
                (name, cache_token(self.database, name, generation))
                for name in scan_names(plan)
            ),
        )

    def record_lineage(self, name: str, plan: PlanNode,
                       input_versions: tuple[tuple[str, int], ...]) -> None:
        """Accepted and ignored (``benchmarks/e2e`` calls it): a derived
        name is read as registered, never re-derived from its lineage."""

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan_statement(self, statement: "ast.Statement") -> PlanNode | None:
        """The plan of a statement: the one that runs."""
        return plan_statement(statement)

    def prepare(self, plan: PlanNode) -> tuple[PlanNode, tuple[str, ...]]:
        """``(plan, ())``: kept only because ``benchmarks/e2e`` calls it
        — the plan as written is the plan run, nothing is rewritten."""
        return plan, ()

    # ------------------------------------------------------------------
    # Abstract interpretation (interval certificates)
    # ------------------------------------------------------------------
    def certify(self, plan: PlanNode) -> PlanCertificate | None:
        """Abstract-interpret a plan into an interval certificate.

        Advisory by construction — a failure inside the interpreter is
        counted and swallowed, never surfaced to the query.
        """
        return self._certify(plan, catalog_generation(self.database))

    def adopt_certificate(
        self, plan: PlanNode, generation: int, certificate: PlanCertificate
    ) -> None:
        """Take the static checker's certificate of ``plan``: the plan
        that runs is the plan it checked, so :meth:`_certify` does not
        redo it."""
        self._adopted = (self.cache_key(plan, generation), certificate)

    def _certify(
        self, plan: PlanNode, generation: int
    ) -> PlanCertificate | None:
        if not self.absint:
            return None
        adopted = self._adopted
        if (
            adopted is not None
            and adopted[0] == self.cache_key(plan, generation)
        ):
            return adopted[1]
        from repro.check.absint import certify_plan

        try:
            with self.tracer.span("check.absint.certify"):
                return certify_plan(plan, self.database, generation)
        except Exception as exc:
            self._absint_error(exc)
            return None

    def _absint_error(self, exc: Exception) -> None:
        """The pass is advisory: count and trace a failure, never raise."""
        self.metrics.counter("check.absint_errors").inc()
        self.tracer.event(
            "check.absint_error", error=f"{type(exc).__name__}: {exc}"
        )

    def _skip_execution(
        self, plan: PlanNode, certificate: PlanCertificate
    ) -> tuple[object, Span]:
        """Serve a certified constant-empty result without executing."""
        assert certificate.kind in _SKIP_RESULTS
        self.metrics.counter("check.absint_skips").inc()
        with self.tracer.span(
            f"{NODE_SPAN}{plan.label()}", strategy="absint",
        ) as span:
            value = _SKIP_RESULTS[certificate.kind]()
        return value, span

    def _verify_certificate(
        self,
        certificate: PlanCertificate | None,
        value: object,
        span: Span,
    ) -> tuple[str, ...]:
        """Runtime soundness check: the node spans' observations must lie
        in the certificate's intervals."""
        if certificate is None:
            return ()
        from repro.check.absint import verify_execution

        try:
            violations = tuple(verify_execution(certificate, value, span))
        except Exception as exc:
            self._absint_error(exc)
            return ()
        for message in violations:
            self.metrics.counter("check.absint_violations").inc()
            self.tracer.event("check.absint_violation", message=message)
        return violations

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute_plan(self, plan: PlanNode) -> ExecutionResult:
        """Run a plan, accelerated."""
        return self._execute(plan, accelerated=True)

    def execute_as_written(self, plan: PlanNode) -> ExecutionResult:
        """Run a plan with every accelerator bypassed: the walked
        reference the index and absint parity suites compare an
        accelerated answer against.  The certificate/skip and the
        snapshot access method are both skipped; everything below them —
        budget ticks, node spans, ``engine.objects_scanned``, the
        probability guard — is the same :meth:`_run` / :meth:`_apply`.
        """
        return self._execute(plan, accelerated=False)

    def _execute(self, plan: PlanNode, accelerated: bool) -> ExecutionResult:
        with self._ambient():
            with self.tracer.span("engine.execute_plan") as root:
                generation = catalog_generation(self.database)
                certificate = (
                    self._certify(plan, generation) if accelerated else None
                )
                if certificate is not None and certificate.skippable:
                    value, span = self._skip_execution(plan, certificate)
                else:
                    value, span = self._run(plan, generation, accelerated)
            violations = self._verify_certificate(certificate, value, span)
            self.metrics.counter("engine.executions").inc()
            self.metrics.histogram("engine.execute_s").observe(root.wall_s)
        return ExecutionResult(
            value, plan, span, certificate=certificate, violations=violations,
        )

    def execute_statement(self, statement: "ast.Statement") -> ExecutionResult:
        """Plan and run a plannable PXQL statement."""
        plan = self.plan_statement(statement)
        if plan is None:
            raise PlanError(
                f"statement {type(statement).__name__} has no plan form"
            )
        return self.execute_plan(plan)

    def _run(
        self, node: PlanNode, generation: int, accelerated: bool
    ) -> tuple[object, Span]:
        budget = current_budget()
        if budget is not None:
            # Cooperative guardrail: deadline / node-evaluation limits
            # surface here, at plan-node boundaries, as BudgetExceeded.
            budget.tick_node(node.label())

        if isinstance(node, ScanNode):
            with self.tracer.span(f"{NODE_SPAN}{node.label()}") as span:
                pi = fetch(self.database, node.name, generation)
                span.attributes["objects"] = len(pi)
            self.metrics.counter("engine.objects_scanned").inc(len(pi))
            return pi, span

        with self.tracer.span(f"{NODE_SPAN}{node.label()}") as span:
            inputs = [
                self._run(child, generation, accelerated)[0]
                for child in node.children()
            ]
            with self.tracer.span(
                "engine.apply", operator=type(node).__name__
            ) as apply_span:
                value, strategy = self._apply(node, inputs, accelerated, span)
            span.attributes["strategy"] = strategy
            if isinstance(value, ProbabilisticInstance):
                span.attributes["objects"] = len(value)
        self.metrics.histogram(
            f"engine.operator.{type(node).__name__}.wall_s"
        ).observe(apply_span.wall_s)
        if budget is not None and isinstance(value, ProbabilisticInstance):
            budget.charge_objects(len(value), node.label())
        return value, span

    def _apply(
        self, node: PlanNode, inputs: list, accelerated: bool, span: Span,
    ) -> tuple[object, str]:
        """``(value, strategy)`` of one operator over its inputs; a
        selection writes its condition probability onto ``span``, the
        node's."""
        if isinstance(node, (ProjectNode, QueryNode)):
            (pi,) = inputs

            def measured(source: PlanNode) -> Estimate:
                return measure(pi)

            strategy = self._strategy(node, measured, accelerated)
            if strategy != "indexed":
                return self._apply_walked(node, pi, strategy)
            # The snapshot fails open: no usable snapshot, or any failure
            # evaluating on it but the user's budget, is answered by the
            # walked operator.  A walk that raises too surfaces its own
            # error, and nothing is counted.
            col = snapshot_of(node.child.name, pi)
            failure = None
            if col is not None:
                try:
                    return self._apply_indexed(node, pi, col)
                except BudgetExceeded:
                    raise
                except Exception as exc:
                    failure = exc
            walked = self._apply_walked(
                node, pi, self._strategy(node, measured, accelerated=False)
            )
            self.metrics.counter("index.fallbacks").inc()
            if failure is not None:
                self.metrics.counter("resilience.fallbacks").inc()
                self.tracer.event(
                    "resilience.fallback", node=node.label(),
                    error=f"{type(failure).__name__}: {failure}",
                )
            return walked
        if isinstance(node, SelectNode):
            (pi,) = inputs
            selection = select_local(pi, condition_of(node))
            check_probability_guard(
                selection.probability, node.prob_op, node.prob_bound
            )
            span.attributes["condition_probability"] = selection.probability
            return selection.instance, "local"
        if isinstance(node, ProductNode):
            left, right = inputs
            return cartesian_product(left, right, node.new_root), "local"
        raise PlanError(f"cannot execute {type(node).__name__}")

    def _strategy(
        self,
        node: PlanNode,
        measured: Callable[[PlanNode], Estimate],
        accelerated: bool,
    ) -> str:
        """How ``node`` is evaluated on its input — the one place the
        access method is decided, asked by the operator when it runs
        (``measured`` = the input's memoised measurement) and by
        ``EXPLAIN`` (``measured`` = the cost model's estimate).

        ``"indexed"``: the path is located on the scanned instance's
        columnar snapshot — only when the statement runs accelerated,
        the input is a scanned name (an operator's output is not frozen,
        so nothing would keep its snapshot) and it measures as a tree
        (the snapshot's domain; the Section 6 algorithms fed the match
        assume it).
        Otherwise the walked operator: ``local``, or for the queries the
        strategy facade answers on DAGs, whatever
        :meth:`CostModel.choose_strategy` picks.
        """
        if not isinstance(node, (ProjectNode, QueryNode)):
            return "local"
        # Every query reads the snapshot (the match, or the memoised
        # root-chain products); of the projections, the ancestor one.
        indexable = isinstance(node, QueryNode) or node.kind == "ancestor"
        source = None
        if indexable and accelerated and isinstance(node.child, ScanNode):
            source = measured(node.child)
            if source.is_tree:
                return "indexed"
        if isinstance(node, QueryNode) and node.kind != "dist":
            return self.cost.choose_strategy(source or measured(node.child))
        return "local"    # projections and DIST are tree-only algorithms

    def _apply_indexed(
        self,
        node: ProjectNode | QueryNode,
        pi: ProbabilisticInstance,
        col: ColumnarInstance,
    ) -> tuple[object, str]:
        """Evaluate a path operator over a scanned tree: the match and
        the memoised root-chain products (:meth:`ColumnarInstance.reach`)
        come from the snapshot and feed the same Section 6 algorithms the
        walked operators run, each computing its answer and nothing else
        — only ``PROJECT`` builds the projection's OPFs.  Their tree
        check reads the weak instance's proof, made once for the frozen
        catalog instance (:meth:`WeakInstance.is_tree`)."""

        def match() -> PathMatch:
            with self.tracer.span(
                "index.match", path=str(node.path), instance=node.child.name
            ) as span:
                found = match_path_indexed(col, node.path)
                span.attributes["matched"] = len(found.matched)
            return found

        if isinstance(node, ProjectNode):
            sweep = epsilon_pass(pi, node.path, match=match())
            projected = instance_from_epsilon_pass(pi, node.path, sweep)
            return projected, "indexed"

        # The ``query.<kind>`` span and counters are the contract the
        # walked QueryEngine established, so traces and PROFILE stay
        # comparable across access methods.
        with self.tracer.span(
            f"query.{node.kind}", strategy="indexed"
        ) as qspan:
            if node.kind == "point":
                value = point_query(pi, node.path, node.oid, snapshot=col)
            elif node.kind == "prob":
                value = col.reach(pi, node.oid)
            elif node.kind == "chain":
                value = chain_probability(pi, node.chain, snapshot=col)
            elif node.kind == "exists":
                value = root_epsilon(pi, node.path, match=match())
            elif node.kind == "count":
                value = expected_match_count(
                    pi, node.path, match=match(), snapshot=col
                )
            else:  # "dist"
                value = match_count_distribution(pi, node.path, match=match())
        self.metrics.counter(f"query.{node.kind}").inc()
        self.metrics.histogram("query.wall_s").observe(qspan.wall_s)
        return value, "indexed"

    def _apply_walked(
        self, node: ProjectNode | QueryNode, pi: ProbabilisticInstance,
        strategy: str,
    ) -> tuple[object, str]:
        """The walked path operators, under the strategy decided.  A
        sampled answer is seeded by the plan's fingerprint, so every
        process gives the same one."""
        if isinstance(node, ProjectNode):
            return _PROJECTION_OPERATORS[node.kind](pi, node.path), strategy
        if node.kind == "dist":
            return match_count_distribution(pi, node.path), strategy
        engine = QueryEngine(
            pi, strategy=strategy,
            seed=zlib.crc32(fingerprint(node).encode()),
        )
        if node.kind == "point":
            value = engine.point(node.path, node.oid)
        elif node.kind == "exists":
            value = engine.exists(node.path)
        elif node.kind == "count":
            value = engine.count(node.path)
        elif node.kind == "chain":
            value = engine.chain(list(node.chain))
        else:  # "prob"
            value = engine.object_exists(node.oid)
        return value, engine.strategy

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def explain(self, plan: PlanNode) -> str:
        """Render the plan with estimates (no execution): the path
        :meth:`execute_plan` takes."""
        generation = catalog_generation(self.database)
        certificate = self._certify(plan, generation)
        with reading_at(self.database, generation):
            lines = _render_plan(plan, self, certificate)
        if certificate is not None:
            lines.append(_certificate_line(certificate))
        return "\n".join(lines)

    def explain_analyze(self, result: ExecutionResult) -> str:
        """Render an executed plan: its node spans, as ``PROFILE`` does,
        then the certificate and what the spans showed against it."""
        lines = [render_span_tree(result.span)]
        if result.certificate is not None:
            lines.append(_certificate_line(result.certificate))
            lines.append(
                "absint violations: "
                + (", ".join(result.violations)
                   if result.violations else "none")
            )
        return "\n".join(lines)


_GUARD_COMPARATORS = {
    ">": lambda probability, bound: probability > bound,
    ">=": lambda probability, bound: probability >= bound,
    "<": lambda probability, bound: probability < bound,
    "<=": lambda probability, bound: probability <= bound,
}


def check_probability_guard(
    probability: float, prob_op: str | None, prob_bound: float | None
) -> None:
    """Enforce a selection's probability guard (``AND PROB > t``).

    Raises :class:`~repro.errors.EmptyResultError` when the computed
    condition probability does not satisfy the comparison.
    """
    if prob_op is None or prob_bound is None:
        return
    if not _GUARD_COMPARATORS[prob_op](probability, prob_bound):
        from repro.errors import EmptyResultError

        raise EmptyResultError(
            f"probability guard failed: condition probability "
            f"{probability:.6g} is not {prob_op} {prob_bound:g}"
        )


def condition_of(node: SelectNode):
    """The selection condition a planned ``SelectNode`` stands for."""
    if node.card_label is not None:
        low, high = node.card_bounds
        return ObjectCardinalityCondition(
            node.path, node.oid, node.card_label, CardinalityInterval(low, high)
        )
    if node.value is not None:
        return ObjectValueCondition(node.path, node.oid, node.value)
    return ObjectCondition(node.path, node.oid)


def _card_text(card: CardInterval) -> str:
    hi = "inf" if card.hi is None else str(card.hi)
    return f"[{card.lo},{hi}]"


def _prob_text(prob: ProbInterval) -> str:
    return f"[{prob.lo:.4g},{prob.hi:.4g}]"


def _certificate_line(certificate: "PlanCertificate") -> str:
    parts = [f"kind={certificate.kind}"]
    if certificate.result is not None:
        lo, hi = certificate.result
        parts.append(f"result=[{lo:.4g},{hi:.4g}]")
    if certificate.empty:
        parts.append(
            "provably empty"
            + (" (skippable)" if certificate.skippable else "")
        )
    return "absint: " + ", ".join(parts)


def _render_plan(
    plan: PlanNode,
    engine: Engine,
    certificate: "PlanCertificate | None",
) -> list[str]:
    cost = engine.cost
    facts_of: dict[int, NodeFacts] = {}
    if certificate is not None:
        for plan_node, facts in zip(walk(plan), certificate.facts):
            facts_of[id(plan_node)] = facts

    def render(node: PlanNode) -> str:
        estimate = cost.estimate(node)
        details = [
            f"est. {estimate.objects} objects",
            f"{estimate.entries} entries",
            "tree" if estimate.is_tree else "dag",
        ]
        facts = facts_of.get(id(node))
        if facts is not None:
            details.append(f"est_rows={_card_text(facts.card)}")
            details.append(f"prob={_prob_text(facts.prob)}")
        if node is plan and certificate is not None and certificate.skippable:
            # What executing it reports: served from the proof.
            details.append("strategy=absint")
        elif not isinstance(node, ScanNode):
            # The same question the operator asks when it runs.
            strategy = engine._strategy(node, cost.estimate, accelerated=True)
            details.append(f"strategy={strategy}")
        return f"{node.label()}  ({', '.join(details)})"

    return _tree_lines(plan, render, lambda node: node.children())

