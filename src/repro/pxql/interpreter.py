"""The PXQL interpreter: executes parsed statements against a Database.

Algebra statements (PROJECT / SELECT / PRODUCT) produce new probabilistic
instances — registered under the ``AS`` name when given, otherwise under
an auto-generated ``_resultN`` name — so queries compose across
statements exactly the way Section 2's situations chain operations.
Query statements (POINT / EXISTS / CHAIN / PROB) return probabilities.

Since the engine PR, algebra and query statements are routed through
:class:`repro.engine.Engine`: statements become logical plans, the
lineage of registered results is inlined so rewrite rules can work
across statement boundaries, sub-plan results are cached under
``(fingerprint, instance versions)`` keys, and ``EXPLAIN`` /
``EXPLAIN ANALYZE`` expose the chosen plan, per-node strategy, timings
and cache status.  Construct the interpreter with ``strategy="naive"``
to get the original eager one-call-per-statement path (used by the
parity test suite for A/B comparison).

Efficient algorithms are used on tree-structured instances; DAGs fall
back to the exact Bayesian-network / global engines automatically.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

from repro.algebra.projection_more import (
    descendant_projection_local,
    single_projection_local,
)
from repro.algebra.projection_prob import ancestor_projection_local
from repro.algebra.product import cartesian_product
from repro.algebra.selection import (
    ObjectCardinalityCondition,
    ObjectCondition,
    ObjectValueCondition,
    select_local,
)
from repro.check.diagnostics import ERROR, CheckError, Diagnostic, DiagnosticReport
from repro.core.cardinality import CardinalityInterval
from repro.core.instance import ProbabilisticInstance
from repro.engine.executor import Engine, ExecutionResult, check_probability_guard
from repro.errors import BudgetExceeded, EmptyResultError, PXMLError
from repro.obs.export import render_span_tree
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.slowlog import SlowQueryLog
from repro.obs.tracing import Tracer, use_tracer
from repro.pxql import ast
from repro.pxql.parser import SpanMap, parse, parse_spanned
from repro.queries.engine import QueryEngine
from repro.render import render_distribution, render_instance
from repro.resilience.budget import Budget, use_budget
from repro.semantics.global_interpretation import GlobalInterpretation
from repro.storage.database import Database, DatabaseError

_STRATEGIES = ("engine", "naive")
_CHECK_MODES = ("error", "warn", "off")

#: Statement kinds routed through the engine — the ones the graceful
#: degradation path can re-run on the naive strategy.
_ENGINE_ROUTED = (
    ast.ProjectStatement, ast.SelectStatement, ast.ProductStatement,
    ast.PointStatement, ast.ExistsStatement, ast.ChainStatement,
    ast.ProbStatement, ast.CountStatement, ast.DistStatement,
)

#: Failures that must *not* trigger the naive fallback: budgets are
#: user-imposed limits, check/catalog/empty-result errors are semantic —
#: the naive path would fail identically (or worse, mask the limit).
_FALLBACK_EXEMPT = (
    BudgetExceeded, CheckError, DatabaseError, EmptyResultError,
)


@dataclass
class Result:
    """The outcome of one statement.

    Attributes:
        value: a probability (float), a rendered string, a list of names,
            or ``None`` for pure side effects.
        instance_name: set when the statement produced/registered an
            instance.
        text: a human-readable rendering of the outcome.
    """

    value: object
    instance_name: str | None
    text: str


class Interpreter:
    """Executes PXQL statements against a :class:`Database`.

    Args:
        database: the catalog to execute against (fresh one if omitted).
        strategy: ``"engine"`` (plan, optimize, cache) or ``"naive"``
            (the original eager path; kept for A/B parity testing).
        optimizer: whether the engine applies its rewrite rules.
        use_index: whether the engine lowers path navigation onto the
            structural index (:mod:`repro.index`); off = pre-index plans.
        cache_size: LRU capacity of the engine's plan and result caches.
        check: check-before-execute mode.  ``"error"`` (default) runs
            the static checker before each statement and raises
            :class:`~repro.check.diagnostics.CheckError` with the whole
            batch when any error-severity finding is present;
            ``"warn"`` records findings in :attr:`last_diagnostics`
            without blocking; ``"off"`` skips the checker entirely.
        slow_query_s: statements at least this slow (wall-clock) are
            recorded in :attr:`slow_log` with their span tree.
        tracer: span collector shared with the engine (own instance if
            omitted).  Every statement becomes a root span; plan-node,
            rewrite, query, sampler and catalog spans nest beneath it.
        metrics: metrics registry shared with the engine (own instance
            if omitted).
    """

    def __init__(
        self,
        database: Database | None = None,
        strategy: str = "engine",
        optimizer: bool = True,
        use_index: bool = True,
        cache_size: int = 256,
        check: str = "error",
        slow_query_s: float = 0.25,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if strategy not in _STRATEGIES:
            raise PXMLError(
                f"unknown interpreter strategy {strategy!r}; "
                f"choose one of {_STRATEGIES}"
            )
        if check not in _CHECK_MODES:
            raise PXMLError(
                f"unknown check mode {check!r}; choose one of {_CHECK_MODES}"
            )
        self.database = database if database is not None else Database()
        self.strategy = strategy
        self.check = check
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.slow_log = SlowQueryLog(threshold_s=slow_query_s)
        self.engine = Engine(self.database, optimizer=optimizer,
                             use_index=use_index, cache_size=cache_size,
                             tracer=self.tracer, metrics=self.metrics)
        self._counter = 0
        #: Session-level dataflow state (:mod:`repro.check.script`):
        #: every executed statement is recorded, so ``CHECK`` and
        #: ``EXPLAIN LINT`` can flag shadowed results / timeouts (PX31x).
        # Imported here: repro.check.script needs the pxql AST, so a
        # module-level import would be circular.
        from repro.check.script import ScriptTracker

        self.script = ScriptTracker()
        self._spans: SpanMap | None = None
        self._subject: str | None = None
        #: WITH TIMEOUT seconds of the statement currently running
        #: (None when it carried no wrapper); used by the lint preview.
        self._statement_timeout_s: float | None = None
        #: The static checker's findings for the last checked statement.
        self.last_diagnostics: list[Diagnostic] = []
        #: Session-wide statement deadline set by ``SET TIMEOUT`` (None: off).
        self._session_timeout_s: float | None = None
        #: Record of graceful degradations: ``(statement label, engine error)``
        #: for every statement that was retried on the naive path.
        self.fallbacks: list[tuple[str, Exception]] = []

    # ------------------------------------------------------------------
    def execute(self, text: str) -> Result:
        """Parse and run one statement."""
        statement, spans = parse_spanned(text)
        return self.run(statement, spans=spans, subject=text.strip())

    def run(
        self,
        statement: ast.Statement,
        spans: SpanMap | None = None,
        subject: str | None = None,
    ) -> Result:
        original = statement
        timeout_s = self._session_timeout_s
        self._statement_timeout_s = None
        if isinstance(statement, ast.TimeoutStatement):
            timeout_s = statement.seconds
            self._statement_timeout_s = statement.seconds
            statement = statement.statement
        handler = getattr(self, f"_run_{type(statement).__name__}", None)
        if handler is None:
            raise PXMLError(f"unsupported statement: {statement!r}")
        self._spans = spans
        self._subject = subject
        if self.check != "off" and not isinstance(
            statement, (ast.CheckStatement, ast.ExplainStatement)
        ):
            # PROFILE is checked through its inner statement (the
            # checker unwraps it): it executes, so it must be gated.
            self.last_diagnostics = self._static_diagnostics(
                statement, spans, subject
            )
            if self.check == "error":
                errors = [d for d in self.last_diagnostics
                          if d.severity == ERROR]
                if errors:
                    raise CheckError(errors)
        label = subject if subject is not None else type(statement).__name__
        with use_tracer(self.tracer), use_registry(self.metrics):
            with self.tracer.span(
                "pxql.statement",
                kind=type(statement).__name__,
                statement=label,
            ) as span:
                try:
                    with self._budget_scope(timeout_s):
                        result = self._dispatch(handler, statement, label)
                except BaseException:
                    self.metrics.counter("pxql.errors").inc()
                    raise
        self.metrics.counter("pxql.statements").inc()
        self.metrics.histogram("pxql.statement_s").observe(span.wall_s)
        self.slow_log.observe(label, span.wall_s, span)
        try:
            # Record the statement *as written* (wrappers included) so
            # the session-level dataflow pass sees WITH TIMEOUT etc.
            self.script.observe(original, subject)
        except Exception:
            pass
        return result

    @contextmanager
    def _budget_scope(self, timeout_s: float | None) -> Iterator[Budget | None]:
        """Install a deadline-only execution budget when a timeout is set."""
        if timeout_s is None or timeout_s <= 0:
            yield None
            return
        with use_budget(Budget(deadline_s=timeout_s)) as budget:
            yield budget

    def _dispatch(self, handler, statement: ast.Statement, label: str):
        """Run a handler, degrading engine failures to the naive path.

        An unexpected engine-strategy failure on an engine-routed
        statement is retried once with ``strategy="naive"`` — the
        original eager path, which shares no planner/optimizer/cache
        machinery with the engine — and recorded in :attr:`fallbacks`,
        the ``resilience.fallbacks`` counter and a ``resilience.fallback``
        trace event.  Budget, check, catalog and empty-result errors
        propagate untouched (see ``_FALLBACK_EXEMPT``).
        """
        try:
            return handler(statement)
        except _FALLBACK_EXEMPT:
            raise
        except Exception as exc:
            if self.strategy != "engine" or not isinstance(
                statement, _ENGINE_ROUTED
            ):
                raise
            self.metrics.counter("resilience.fallbacks").inc()
            self.tracer.event(
                "resilience.fallback",
                statement=label,
                error=f"{type(exc).__name__}: {exc}",
            )
            self.fallbacks.append((label, exc))
            self.strategy = "naive"
            try:
                return handler(statement)
            finally:
                self.strategy = "engine"

    def _static_diagnostics(
        self,
        statement: ast.Statement,
        spans: SpanMap | None,
        subject: str | None,
        rewrites: bool = False,
    ) -> list[Diagnostic]:
        """Run the static checker, never letting a checker bug block execution."""
        try:
            from repro.check.query import check_statement

            return check_statement(
                statement, self.database, spans=spans,
                guides=self.engine.guides,
                subject=subject, rewrites=rewrites,
            )
        except Exception:
            return []

    @property
    def cache_stats(self) -> dict[str, dict[str, int]]:
        """The engine's plan/result cache counters."""
        return self.engine.cache_stats

    # ------------------------------------------------------------------
    def _fresh_name(self) -> str:
        self._counter += 1
        return f"_result{self._counter}"

    def _register(self, target: str | None, instance: ProbabilisticInstance) -> str:
        name = target if target is not None else self._fresh_name()
        self.database.register(name, instance, replace=True)
        return name

    def _query_engine(self, name: str) -> QueryEngine:
        return QueryEngine(self.database.get(name))

    # ------------------------------------------------------------------
    # Engine routing
    # ------------------------------------------------------------------
    def _engine_algebra(
        self, statement: ast.Statement, target: str | None
    ) -> tuple[ExecutionResult, str]:
        """Execute an instance-producing statement through the engine."""
        plan = self.engine.plan_statement(statement)
        input_versions = self.engine.versions_of(plan)
        execution = self.engine.execute_plan(plan)
        name = self._register(target, execution.value)
        self.engine.record_lineage(name, plan, input_versions)
        return execution, name

    def _engine_query(self, statement: ast.Statement) -> ExecutionResult:
        """Execute a probability-returning statement through the engine."""
        return self.engine.execute_statement(statement)

    # ------------------------------------------------------------------
    # Algebra statements
    # ------------------------------------------------------------------
    def _run_ProjectStatement(self, stmt: ast.ProjectStatement) -> Result:
        if self.strategy == "naive":
            source = self.database.get(stmt.source)
            operator = {
                "ancestor": ancestor_projection_local,
                "descendant": descendant_projection_local,
                "single": single_projection_local,
            }[stmt.kind]
            projected = operator(source, stmt.path)
            name = self._register(stmt.target, projected)
        else:
            execution, name = self._engine_algebra(stmt, stmt.target)
            projected = execution.value
        return Result(
            projected, name,
            f"{stmt.kind} projection of {stmt.path} -> {name} "
            f"({len(projected)} objects)",
        )

    def _run_SelectStatement(self, stmt: ast.SelectStatement) -> Result:
        condition = self._condition_of(stmt)
        if self.strategy == "naive":
            source = self.database.get(stmt.source)
            selection = select_local(source, condition)
            check_probability_guard(
                selection.probability, stmt.prob_op, stmt.prob_bound
            )
            instance = selection.instance
            probability = selection.probability
            name = self._register(stmt.target, instance)
        else:
            execution, name = self._engine_algebra(stmt, stmt.target)
            instance = execution.value
            probability = execution.condition_probability
        return Result(
            instance, name,
            f"selection [{condition}] -> {name} "
            f"(condition probability {probability:.6g})",
        )

    @staticmethod
    def _condition_of(stmt: ast.SelectStatement):
        if stmt.card_label is not None:
            low, high = stmt.card_bounds
            return ObjectCardinalityCondition(
                stmt.path, stmt.oid, stmt.card_label, CardinalityInterval(low, high)
            )
        if stmt.value is not None:
            return ObjectValueCondition(stmt.path, stmt.oid, stmt.value)
        return ObjectCondition(stmt.path, stmt.oid)

    def _run_ProductStatement(self, stmt: ast.ProductStatement) -> Result:
        if self.strategy == "naive":
            product = cartesian_product(
                self.database.get(stmt.left),
                self.database.get(stmt.right),
                stmt.new_root,
            )
            name = self._register(stmt.target, product)
        else:
            execution, name = self._engine_algebra(stmt, stmt.target)
            product = execution.value
        return Result(
            product, name,
            f"product of {stmt.left} and {stmt.right} -> {name} "
            f"({len(product)} objects)",
        )

    # ------------------------------------------------------------------
    # Query statements
    # ------------------------------------------------------------------
    def _run_PointStatement(self, stmt: ast.PointStatement) -> Result:
        if self.strategy == "naive":
            probability = self._query_engine(stmt.source).point(stmt.path, stmt.oid)
        else:
            probability = self._engine_query(stmt).value
        return Result(
            probability, None,
            f"P({stmt.oid} in {stmt.path}) = {probability:.6g}",
        )

    def _run_ExistsStatement(self, stmt: ast.ExistsStatement) -> Result:
        if self.strategy == "naive":
            probability = self._query_engine(stmt.source).exists(stmt.path)
        else:
            probability = self._engine_query(stmt).value
        return Result(
            probability, None,
            f"P(exists {stmt.path}) = {probability:.6g}",
        )

    def _run_ChainStatement(self, stmt: ast.ChainStatement) -> Result:
        if self.strategy == "naive":
            probability = self._query_engine(stmt.source).chain(list(stmt.chain))
        else:
            probability = self._engine_query(stmt).value
        return Result(
            probability, None,
            f"P({'.'.join(stmt.chain)}) = {probability:.6g}",
        )

    def _run_ProbStatement(self, stmt: ast.ProbStatement) -> Result:
        if self.strategy == "naive":
            probability = self._query_engine(stmt.source).object_exists(stmt.oid)
        else:
            probability = self._engine_query(stmt).value
        return Result(
            probability, None,
            f"P({stmt.oid} exists) = {probability:.6g}",
        )

    def _run_CountStatement(self, stmt: ast.CountStatement) -> Result:
        if self.strategy == "naive":
            from repro.queries.aggregates import expected_match_count

            expectation = expected_match_count(
                self.database.get(stmt.source), stmt.path
            )
        else:
            expectation = self._engine_query(stmt).value
        return Result(
            expectation, None,
            f"E[#objects in {stmt.path}] = {expectation:.6g}",
        )

    def _run_DistStatement(self, stmt: ast.DistStatement) -> Result:
        if self.strategy == "naive":
            from repro.queries.aggregates import match_count_distribution

            distribution = match_count_distribution(
                self.database.get(stmt.source), stmt.path
            )
        else:
            distribution = self._engine_query(stmt).value
        rows = "\n".join(
            f"  {count}: {probability:.6g}"
            for count, probability in sorted(distribution.items())
        )
        return Result(
            distribution, None,
            f"#objects in {stmt.path}:\n{rows}",
        )

    # ------------------------------------------------------------------
    # EXPLAIN
    # ------------------------------------------------------------------
    def _run_ExplainStatement(self, stmt: ast.ExplainStatement) -> Result:
        inner = stmt.statement
        plan = self.engine.plan_statement(inner)
        if plan is None:
            raise PXMLError(
                "EXPLAIN supports algebra (PROJECT/SELECT/PRODUCT) and "
                "query (POINT/EXISTS/CHAIN/PROB/COUNT/DIST) statements"
            )
        if getattr(stmt, "lint", False):
            diagnostics = self._static_diagnostics(
                inner, self._spans, self._subject, rewrites=True
            )
            diagnostics.extend(self._script_preview(inner))
            self.last_diagnostics = diagnostics
            report = DiagnosticReport(list(diagnostics))
            text = self.engine.explain(plan) + "\n" + report.to_text()
            return Result(diagnostics, None, text)
        if not stmt.analyze:
            text = self.engine.explain(plan)
            return Result(text, None, text)
        with self._verified_execution():
            if isinstance(
                inner,
                (ast.ProjectStatement, ast.SelectStatement,
                 ast.ProductStatement),
            ):
                execution, name = self._engine_algebra(inner, inner.target)
            else:
                execution, name = self._engine_query(inner), None
            # Rendered inside the scope: explain_analyze only prints the
            # violations line while verification is on.
            text = self.engine.explain_analyze(execution)
        if not isinstance(execution.value, ProbabilisticInstance):
            text += f"\nresult: {execution.value}"
        elif name is not None:
            text += f"\nresult: registered as {name}"
        return Result(text, name, text)

    # ------------------------------------------------------------------
    # CHECK: static diagnostics only, never executed
    # ------------------------------------------------------------------
    def _run_CheckStatement(self, stmt: ast.CheckStatement) -> Result:
        diagnostics = self._static_diagnostics(
            stmt.statement, self._spans, self._subject, rewrites=True
        )
        diagnostics.extend(self._script_preview(stmt.statement))
        self.last_diagnostics = diagnostics
        report = DiagnosticReport(list(diagnostics))
        return Result(diagnostics, None, report.to_text())

    def _script_preview(self, statement: ast.Statement) -> list[Diagnostic]:
        """Session-dataflow findings a statement would add (never raises).

        A ``WITH TIMEOUT`` on the ``CHECK`` / ``EXPLAIN LINT`` wrapper
        is re-attached to the previewed statement: the user is vetting
        the statement as they would run it, deadline included.
        """
        try:
            if self._statement_timeout_s is not None:
                statement = ast.TimeoutStatement(
                    statement, self._statement_timeout_s
                )
            return self.script.preview(statement, self._subject)
        except Exception:
            return []

    @contextmanager
    def _verified_execution(self) -> Iterator[None]:
        """Turn on runtime certificate verification for one execution.

        Under ``EXPLAIN ANALYZE`` / ``PROFILE`` the engine checks every
        observed cardinality and probability against the absint
        certificate's intervals; violations land in the
        ``check.absint_violations`` counter and the execution result.
        """
        previous = self.engine.absint_verify
        self.engine.absint_verify = True
        try:
            yield
        finally:
            self.engine.absint_verify = previous

    # ------------------------------------------------------------------
    # PROFILE: execute and return the span tree
    # ------------------------------------------------------------------
    def _run_ProfileStatement(self, stmt: ast.ProfileStatement) -> Result:
        inner = stmt.statement
        handler = getattr(self, f"_run_{type(inner).__name__}", None)
        if handler is None or isinstance(
            inner, (ast.ExplainStatement, ast.CheckStatement,
                    ast.ProfileStatement)
        ):
            raise PXMLError(
                "PROFILE takes an executable statement "
                "(not EXPLAIN/CHECK/PROFILE)"
            )
        with self.tracer.span(
            "pxql.profile",
            kind=type(inner).__name__,
            statement=self._subject or type(inner).__name__,
        ) as root, self._verified_execution():
            try:
                inner_result = handler(inner)
            except BudgetExceeded as exc:
                # Ship the partial span tree with the error: everything
                # executed before the budget tripped is already recorded
                # under ``root``.
                exc.span = root
                raise
        self.metrics.counter("pxql.profiles").inc()
        text = render_span_tree(root)
        if inner_result.instance_name is not None:
            text += f"\nresult: registered as {inner_result.instance_name}"
        elif not isinstance(inner_result.value, (ProbabilisticInstance, str)):
            text += f"\nresult: {inner_result.value}"
        return Result(root, inner_result.instance_name, text)

    # ------------------------------------------------------------------
    # SET: session options
    # ------------------------------------------------------------------
    def _run_SetStatement(self, stmt: ast.SetStatement) -> Result:
        if stmt.option != "timeout":
            raise PXMLError(f"unknown session option {stmt.option!r}")
        self._session_timeout_s = stmt.value if stmt.value > 0 else None
        if self._session_timeout_s is None:
            return Result(None, None, "timeout cleared")
        return Result(
            self._session_timeout_s, None,
            f"timeout set to {self._session_timeout_s:g}s per statement",
        )

    # ------------------------------------------------------------------
    # Remaining (eager) statements
    # ------------------------------------------------------------------
    def _run_UnrollStatement(self, stmt: ast.UnrollStatement) -> Result:
        from repro.core.unroll import unroll

        unrolled = unroll(self.database.get(stmt.source), stmt.horizon)
        name = self._register(stmt.target, unrolled)
        return Result(
            unrolled, name,
            f"unrolled {stmt.source} to horizon {stmt.horizon} -> {name} "
            f"({len(unrolled)} objects)",
        )

    def _run_EstimateStatement(self, stmt: ast.EstimateStatement) -> Result:
        from repro.semantics.sampling import (
            estimate_existential_query,
            estimate_point_query,
        )

        source = self.database.get(stmt.source)
        if stmt.oid is None:
            estimate = estimate_existential_query(source, stmt.path, stmt.samples)
            label = f"P(exists {stmt.path})"
        else:
            estimate = estimate_point_query(source, stmt.path, stmt.oid,
                                            stmt.samples)
            label = f"P({stmt.oid} in {stmt.path})"
        return Result(estimate, None, f"{label} ~= {estimate}")

    def _run_WorldsStatement(self, stmt: ast.WorldsStatement) -> Result:
        interpretation = GlobalInterpretation.from_local(
            self.database.get(stmt.source)
        )
        text = render_distribution(interpretation, limit=stmt.limit)
        return Result(interpretation, None, text)

    def _run_ShowStatement(self, stmt: ast.ShowStatement) -> Result:
        text = render_instance(self.database.get(stmt.source))
        return Result(text, None, text)

    def _run_ListStatement(self, stmt: ast.ListStatement) -> Result:
        names = self.database.names()
        return Result(names, None, "\n".join(names) if names else "(empty)")

    def _run_DropStatement(self, stmt: ast.DropStatement) -> Result:
        self.database.drop(stmt.name)
        return Result(None, None, f"dropped {stmt.name}")

    def _run_LoadStatement(self, stmt: ast.LoadStatement) -> Result:
        instance = self.database.load_file(stmt.name, stmt.path)
        return Result(
            instance, stmt.name,
            f"loaded {stmt.name} from {stmt.path} ({len(instance)} objects)",
        )

    def _run_SaveStatement(self, stmt: ast.SaveStatement) -> Result:
        if stmt.path is not None:
            from repro.io.json_codec import write_instance

            write_instance(self.database.get(stmt.name), stmt.path)
            return Result(None, stmt.name, f"saved {stmt.name} to {stmt.path}")
        path = self.database.save(stmt.name)
        return Result(None, stmt.name, f"saved {stmt.name} to {path}")
