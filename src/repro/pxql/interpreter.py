"""The PXQL interpreter: executes parsed statements against a Database.

Algebra statements (PROJECT / SELECT / PRODUCT) produce new probabilistic
instances — registered under the ``AS`` name when given, otherwise under
an auto-generated ``_resultN`` name — so queries compose across
statements exactly the way Section 2's situations chain operations.
Query statements (POINT / EXISTS / CHAIN / PROB) return probabilities.

Algebra and query statements reach an operator only through
:class:`repro.engine.Engine`: statements become logical plans over
scans of registered names — a derived name is read as registered, never
re-derived from the statement that made it — and ``EXPLAIN`` /
``EXPLAIN ANALYZE`` expose the chosen plan, per-node strategy and
timings.  There is no second evaluator and no retry here: each
accelerator fails open inside the engine, where it runs, and an error
that reaches the interpreter is the statement's own.  The reference the
parity suites compare against is the operators themselves
(``repro.algebra`` / ``repro.queries`` / ``repro.semantics``, see
``tests/helpers.py::evaluate_directly``).

Ahead of it sits the *statement tier*, the one result cache: a bare
read's outcome is kept under ``(text, check mode)``, stamped with the
catalog token of the name it read (:class:`StatementTier`, one per
catalog object), and a repeat whose input has not moved is answered
before parse, check, plan and certify — by any interpreter over that
catalog, or by a server admitting the request
(:func:`answer_from_tier`).  Between statements the engine remembers
nothing; the catalog is the only memory.

Efficient algorithms are used on tree-structured instances; DAGs fall
back to the exact Bayesian-network / global engines automatically.
"""

from __future__ import annotations

import copy
import threading
import weakref
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

from repro.check.diagnostics import ERROR, CheckError, Diagnostic, DiagnosticReport
from repro.core.instance import ProbabilisticInstance
from repro.engine.cache import CacheStats, LRUCache
from repro.engine.executor import Engine, ExecutionResult, condition_of
from repro.engine.plan import plan_statement
from repro.errors import BudgetExceeded, PXMLError
from repro.obs.export import render_span_tree
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.slowlog import SlowQueryLog
from repro.obs.tracing import Span, Tracer, use_tracer
from repro.pxql import ast
from repro.pxql.parser import SpanMap, parse_memo
from repro.render import render_distribution, render_instance
from repro.resilience.budget import Budget, current_budget, use_budget
from repro.resilience.faults import fault_point
from repro.semantics.global_interpretation import GlobalInterpretation
from repro.storage.database import Database, DatabaseError
from repro.storage.derived import (
    Token,
    Versioned,
    cache_token,
    catalog_generation,
    reading_at,
)

_CHECK_MODES = ("error", "warn", "off")

#: LRU capacity of the statement tier.
_CACHE_SIZE = 256

#: Instance-producing statement kinds (registered under their ``AS`` name).
_ALGEBRA = (ast.ProjectStatement, ast.SelectStatement, ast.ProductStatement)

#: Read-only query kinds: one ``source``, a number or a distribution
#: out, no side effect — what the statement tier may answer.
_READS = (
    ast.PointStatement, ast.ExistsStatement, ast.ChainStatement,
    ast.ProbStatement, ast.CountStatement, ast.DistStatement,
)

#: Statement kinds routed through the engine.
_ENGINE_ROUTED = _ALGEBRA + _READS


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


def _unshared(result: Result) -> Result:
    """A copy whose (``DIST``: mutable) value a caller cannot reach the
    statement tier through; a number or a string is shared as it is."""
    value = result.value
    if not isinstance(value, (float, int, str)):
        value = copy.deepcopy(value)
    return Result(value, result.instance_name, result.text)


class _Answer(NamedTuple):
    """One statement-tier entry: the statement as parsed (its
    ``source`` is the one name it read), that name's catalog token when
    it was answered, the checker's findings and the result."""

    statement: ast.Statement
    token: Token
    diagnostics: tuple[Diagnostic, ...]
    result: Result


#: catalog object -> its statement tier (weak-keyed: the tier dies with
#: the catalog).
_tiers: weakref.WeakKeyDictionary[Versioned, StatementTier] = (
    weakref.WeakKeyDictionary()
)
_tiers_lock = threading.Lock()


class StatementTier:
    """The one result cache: ``(text, check mode) -> _Answer`` of bare
    reads, shared by everything that executes over one catalog object.

    A probe is one lookup of the text as written — nothing is parsed.
    Only an entry found costs a catalog read: it answers while the token
    of the name it read is the one it was computed under (a kept answer
    is reused only while the data it read is unchanged), and a moved
    token is a miss.  A probe counts its hits; a miss is counted once,
    by the interpreter that computes the read (:meth:`miss`), so a text
    the tier never keeps counts nothing.  Each call counts into the
    ``metrics`` and reports an isolated failure on the ``tracer`` of
    whoever asked.
    """

    name = "pxql.cache.statements"

    def __init__(self) -> None:
        self._entries = LRUCache(_CACHE_SIZE, name=self.name)

    @classmethod
    def of(cls, database: Versioned) -> StatementTier:
        """The tier every reader of ``database`` in this process shares
        (a private one for a catalog that cannot be weakly referenced)."""
        try:
            with _tiers_lock:
                tier = _tiers.get(database)
                if tier is None:
                    tier = _tiers[database] = cls()
        except TypeError:
            return cls()
        return tier

    def get(
        self, database: Versioned, text: str, check: str,
        tracer: Tracer, metrics: MetricsRegistry,
    ) -> _Answer | None:
        """The kept answer to ``text`` under ``check`` if the name it
        read has not moved (hand out :func:`_unshared` of its result);
        never fails a query — an error is a miss."""
        try:
            fault_point(f"{self.name}.get")
            answer = self._entries.find((text, check))
            if answer is None:
                return None
            source = answer.statement.source
            token = cache_token(database, source, catalog_generation(database))
        except DatabaseError:  # the name is gone: the slow path words it
            return None
        except Exception as exc:
            self._error("get", exc, tracer, metrics)
            return None
        if token != answer.token:
            return None
        self._entries.record(hit=True)
        metrics.counter(f"{self.name}.hits").inc()
        return answer

    def miss(self, metrics: MetricsRegistry) -> None:
        """Count a read the tier could answer being computed."""
        self._entries.record(hit=False)
        metrics.counter(f"{self.name}.misses").inc()

    def put(
        self, text: str, check: str, answer: _Answer,
        tracer: Tracer, metrics: MetricsRegistry,
    ) -> None:
        """Keep ``answer``, whose result no caller holds (never fails a
        query: an error skips it)."""
        try:
            fault_point(f"{self.name}.put")
            evicted = self._entries.put((text, check), answer)
        except Exception as exc:
            self._error("put", exc, tracer, metrics)
            return
        if evicted:
            metrics.counter(f"{self.name}.evictions").inc(evicted)
        metrics.gauge(f"{self.name}.size").set(len(self._entries))

    def _error(
        self, op: str, exc: Exception, tracer: Tracer, metrics: MetricsRegistry
    ) -> None:
        metrics.counter("resilience.cache_errors").inc()
        tracer.event(
            "resilience.cache_error", cache=self.name, op=op,
            error=f"{type(exc).__name__}: {exc}",
        )

    @property
    def stats(self) -> CacheStats:
        return self._entries.stats


@contextmanager
def statement_span(
    tracer: Tracer,
    metrics: MetricsRegistry,
    statement: ast.Statement,
    label: str,
    **attributes: object,
) -> Iterator[Span]:
    """The root ``pxql.statement`` span of one statement, with ``tracer``
    and ``metrics`` ambient beneath it, and its counts once it
    succeeded."""
    with use_tracer(tracer), use_registry(metrics):
        with tracer.span(
            "pxql.statement",
            kind=type(statement).__name__,
            statement=label,
            **attributes,
        ) as span:
            try:
                yield span
            except BaseException:
                metrics.counter("pxql.errors").inc()
                raise
    metrics.counter("pxql.statements").inc()
    metrics.histogram("pxql.statement_s").observe(span.wall_s)


def _charge_hit(label: str) -> None:
    """A hit is one node of the ambient budget (which may have expired)."""
    budget = current_budget()
    if budget is not None:
        budget.tick_node(label)


def answer_from_tier(
    database: Versioned, text: str, check: str,
    tracer: Tracer, metrics: MetricsRegistry,
) -> Result | None:
    """The statement tier's answer to ``text``, on the calling thread
    under the ambient budget — or ``None``, with nothing parsed and
    nothing computed.  How a server answers a repeated read where it
    admits the request."""
    answer = StatementTier.of(database).get(database, text, check, tracer, metrics)
    if answer is None:
        return None
    label = text.strip()
    with statement_span(tracer, metrics, answer.statement, label, cache="statement"):
        _charge_hit(label)
    return _unshared(answer.result)


class Interpreter:
    """Executes PXQL statements against a :class:`Database`.

    Args:
        database: the catalog to execute against (fresh one if omitted).
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
            query, sampler and catalog spans nest beneath it.
        metrics: metrics registry shared with the engine (own instance
            if omitted).
    """

    def __init__(
        self,
        database: Database | None = None,
        check: str = "error",
        slow_query_s: float = 0.25,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if check not in _CHECK_MODES:
            raise PXMLError(
                f"unknown check mode {check!r}; choose one of {_CHECK_MODES}"
            )
        self.database = database if database is not None else Database()
        self.check = check
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.slow_log = SlowQueryLog(threshold_s=slow_query_s)
        self.engine = Engine(self.database,
                             tracer=self.tracer, metrics=self.metrics)
        self._counter = 0
        #: Session-level dataflow state (:mod:`repro.check.script`):
        #: every executed statement is recorded, so ``CHECK`` and
        #: ``EXPLAIN LINT`` can flag shadowed results / timeouts (PX31x).
        # Imported here: repro.check.script needs the pxql AST, so a
        # module-level import would be circular.
        from repro.check.script import ScriptTracker

        self.script = ScriptTracker()
        self._parse = parse_memo()
        #: The statement tier of this catalog object (shared).
        self._statements = StatementTier.of(self.database)
        self._spans: SpanMap | None = None
        self._subject: str | None = None
        #: WITH TIMEOUT seconds of the statement currently running
        #: (None when it carried no wrapper); used by the lint preview.
        self._statement_timeout_s: float | None = None
        #: The static checker's findings for the last checked statement.
        self.last_diagnostics: list[Diagnostic] = []
        #: Session-wide statement deadline set by ``SET TIMEOUT`` (None: off).
        self._session_timeout_s: float | None = None

    # ------------------------------------------------------------------
    def execute(self, text: str) -> Result:
        """Parse and run one statement — or, for a repeated bare read
        whose input has not moved, answer it from the statement tier
        without parsing it."""
        subject = text.strip()
        tracer, metrics = self.tracer, self.metrics
        # A deadline bypasses the tier.
        if self._session_timeout_s is None:
            answer = self._statements.get(
                self.database, text, self.check, tracer, metrics
            )
            if answer is not None:
                statement = answer.statement
                if self.check != "off":
                    self.last_diagnostics = list(answer.diagnostics)
                with statement_span(tracer, metrics, statement, subject,
                                    cache="statement") as span:
                    _charge_hit(subject)
                self._reported(statement, subject, subject, span)
                return _unshared(answer.result)
        statement, spans = self._parse(text)
        generation, token = self._read(statement)
        if token is not None:
            self._statements.miss(metrics)
        # The checker and the engine see the catalog this read saw.
        with reading_at(self.database, generation):
            result = self.run(statement, spans, subject)
        # Every answer is kept: one the walked operator gave in place of
        # a failed accelerator is the reference answer.
        if token is not None:
            self._statements.put(text, self.check, _Answer(
                statement, token, tuple(self.last_diagnostics), _unshared(result)
            ), tracer, metrics)
        return result

    def _read(
        self, statement: ast.Statement
    ) -> tuple[int | None, Token | None]:
        """``(generation, token)``: this request's one catalog read — the
        checker and the engine are handed it — and, unless the tier must
        stay out (not a bare read, a session deadline, an unknown name),
        the token of the name it reads."""
        if not isinstance(statement, _ENGINE_ROUTED):
            return None, None
        generation = catalog_generation(self.database)
        if not (
            isinstance(statement, _READS) and self._session_timeout_s is None
        ):
            return generation, None
        try:
            token = cache_token(self.database, statement.source, generation)
        except DatabaseError:  # the slow path words the error
            return generation, None
        return generation, token

    def run(
        self,
        statement: ast.Statement,
        spans: SpanMap | None = None,
        subject: str | None = None,
    ) -> Result:
        """Run a parsed statement."""
        original = statement
        timeout_s = self._session_timeout_s
        self._statement_timeout_s = None
        if isinstance(statement, ast.TimeoutStatement):
            timeout_s = statement.seconds
            self._statement_timeout_s = statement.seconds
            statement = statement.statement
        handler = self._handler_for(statement)
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
        with statement_span(self.tracer, self.metrics, statement, label) as span:
            with self._budget_scope(timeout_s):
                result = handler(statement)
        self._reported(original, subject, label, span)
        return result

    def _reported(
        self,
        original: ast.Statement,
        subject: str | None,
        label: str,
        span: Span,
    ) -> None:
        """What is reported once a statement succeeded — however it was
        answered."""
        self.slow_log.observe(label, span.wall_s, span)
        try:
            # Record the statement *as written* (wrappers included) so
            # the session-level dataflow pass sees WITH TIMEOUT etc.
            self.script.observe(original, subject)
        except Exception:
            pass

    @contextmanager
    def _budget_scope(self, timeout_s: float | None) -> Iterator[Budget | None]:
        """Install a deadline-only execution budget when a timeout is set."""
        if timeout_s is None or timeout_s <= 0:
            yield None
            return
        with use_budget(Budget(deadline_s=timeout_s)) as budget:
            yield budget

    def _handler_for(self, statement: ast.Statement):
        if isinstance(statement, _ENGINE_ROUTED):
            return self._run_planned
        return getattr(self, f"_run_{type(statement).__name__}", None)

    def _static_diagnostics(
        self,
        statement: ast.Statement,
        spans: SpanMap | None,
        subject: str | None,
    ) -> list[Diagnostic]:
        """Run the static checker, never letting a checker bug block
        execution: a failure is counted and traced, and the statement
        runs unchecked."""
        try:
            from repro.check.query import check_statement

            # A snapshot the pass builds is counted where the engine's
            # builds are (``index.builds``).
            with use_registry(self.metrics):
                return check_statement(
                    statement, self.database, spans=spans, subject=subject,
                    certified=self.engine.adopt_certificate,
                )
        except Exception as exc:
            self.metrics.counter("check.errors").inc()
            self.tracer.event(
                "check.error", error=f"{type(exc).__name__}: {exc}"
            )
            return []

    @property
    def cache_stats(self) -> dict[str, dict[str, int]]:
        """The statement tier's counters."""
        return {"statements": self._statements.stats.as_dict()}

    # ------------------------------------------------------------------
    #: What a fresh result name is ``{prefix}{n}`` of (a pool worker's
    #: carries its index).
    _fresh_prefix = "_result"

    def _fresh_name(self) -> str:
        """The next ``{prefix}{n}`` the catalog does not hold: an unnamed
        result never replaces one saved by an earlier run."""
        while True:
            self._counter += 1
            name = f"{self._fresh_prefix}{self._counter}"
            if name not in self.database:
                return name

    def _register(self, target: str | None, instance: ProbabilisticInstance) -> str:
        name = target if target is not None else self._fresh_name()
        self.database.register(name, instance, replace=True)
        return name

    # ------------------------------------------------------------------
    # Planned statements: algebra and queries, through the engine only
    # ------------------------------------------------------------------
    def _evaluate(
        self, statement: ast.Statement
    ) -> tuple[ExecutionResult, str | None]:
        """Execute an engine-routed statement; register an algebra result."""
        execution = self.engine.execute_statement(statement)
        if not isinstance(statement, _ALGEBRA):
            return execution, None
        return execution, self._register(statement.target, execution.value)

    def _run_planned(self, statement: ast.Statement) -> Result:
        execution, name = self._evaluate(statement)
        return Result(
            execution.value, name, _describe(statement, execution, name)
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
                inner, self._spans, self._subject
            )
            diagnostics.extend(self._script_preview(inner))
            self.last_diagnostics = diagnostics
            report = DiagnosticReport(list(diagnostics))
            text = self.engine.explain(plan) + "\n" + report.to_text()
            return Result(diagnostics, None, text)
        if not stmt.analyze:
            text = self.engine.explain(plan)
            return Result(text, None, text)
        execution, name = self._evaluate(inner)
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
            stmt.statement, self._spans, self._subject
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

    # ------------------------------------------------------------------
    # PROFILE: execute and return the span tree
    # ------------------------------------------------------------------
    def _run_ProfileStatement(self, stmt: ast.ProfileStatement) -> Result:
        inner = stmt.statement
        handler = self._handler_for(inner)
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
        ) as root:
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


def _describe(
    stmt: ast.Statement, execution: ExecutionResult, name: str | None
) -> str:
    """The human-readable outcome line of an engine-routed statement."""
    value = execution.value
    if isinstance(stmt, ast.ProjectStatement):
        return (f"{stmt.kind} projection of {stmt.path} -> {name} "
                f"({len(value)} objects)")
    if isinstance(stmt, ast.SelectStatement):
        return (f"selection [{condition_of(plan_statement(stmt))}] -> {name} "
                f"(condition probability "
                f"{execution.span.attributes['condition_probability']:.6g})")
    if isinstance(stmt, ast.ProductStatement):
        return (f"product of {stmt.left} and {stmt.right} -> {name} "
                f"({len(value)} objects)")
    if isinstance(stmt, ast.PointStatement):
        return f"P({stmt.oid} in {stmt.path}) = {value:.6g}"
    if isinstance(stmt, ast.ExistsStatement):
        return f"P(exists {stmt.path}) = {value:.6g}"
    if isinstance(stmt, ast.ChainStatement):
        return f"P({'.'.join(stmt.chain)}) = {value:.6g}"
    if isinstance(stmt, ast.ProbStatement):
        return f"P({stmt.oid} exists) = {value:.6g}"
    if isinstance(stmt, ast.CountStatement):
        return f"E[#objects in {stmt.path}] = {value:.6g}"
    rows = "\n".join(
        f"  {count}: {probability:.6g}"
        for count, probability in sorted(value.items())
    )
    return f"#objects in {stmt.path}:\n{rows}"
