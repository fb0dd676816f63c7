"""The instrumented plan executor.

:class:`Engine` ties the pieces together: it translates PXQL statements
into plans, inlines the lineage of previously computed results, runs the
rewrite optimizer, executes plans bottom-up with per-node wall-clock
timings / output cardinalities / cache status, and memoizes node
results in a versioned LRU cache.  Preparing a plan is a pure function
of the plan, its lineage and the catalog tokens; nothing about it is
remembered between statements.

Result caching is per *sub-plan*: a node's key is its canonical
fingerprint plus the catalog token of every instance it scans, so two
different statements that share a sub-expression share its result, and
re-registering or touching any input invalidates every dependent entry
implicitly (the key changes).  The catalog generation half of those
tokens is read once per statement and threaded to every key built for
it, so one statement sees one catalog snapshot.

Since the observability PR the executor is span-backed: every plan node
execution opens a :class:`repro.obs.tracing.Span` on the engine's
tracer, and :class:`NodeStats` is a thin per-node view over those spans
(same wall times, same tree shape) kept for ``EXPLAIN ANALYZE``
compatibility.  The engine also owns a
:class:`repro.obs.metrics.MetricsRegistry` covering cache hit ratios,
operator latencies, and objects scanned; both are made *ambient* during
execution so the rewrite optimizer, the Section 6 query algorithms and
the world sampler report into the same trace and registry.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

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
from repro.engine.cache import LRUCache
from repro.engine.cost import CostModel, Estimate, measure_instance
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
from repro.engine.rewrite import DEFAULT_RULES, optimize
from repro.index import IndexCache, match_path_indexed
from repro.index.columnar import ColumnarInstance
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.tracing import Span, Tracer, use_tracer
from repro.queries.aggregates import (
    expected_match_count,
    match_count_distribution,
)
from repro.queries.chain import chain_probability
from repro.queries.engine import QueryEngine
from repro.queries.point import point_query
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.budget import current_budget
from repro.resilience.faults import fault_point
from repro.semistructured.paths import PathMatch
from repro.storage.derived import cache_token, catalog_generation

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

#: Maximum depth of lineage inlining (cycle / runaway guard).
_MAX_INLINE_DEPTH = 16

#: LRU capacity of the result cache.
_CACHE_SIZE = 256

#: Lineage entries recorded before the first sweep of dead ones.
_LINEAGE_SWEEP_MIN = 32


@dataclass
class NodeStats:
    """Measurements for one executed plan node.

    Since the observability PR this is a thin view over the span the
    executor opened for the node: ``wall_s`` is the span's wall time and
    :attr:`span` links back to the full record (CPU time, attributes,
    sub-operation spans).  On a cache hit the executor re-reports the
    cached subtree *as documentation of shape only*: every descendant
    is a deep copy marked ``cache="hit"`` with zero wall time, so
    ``EXPLAIN ANALYZE`` totals never double-count work that was not
    re-executed and callers can never mutate cached stats through a
    result.
    """

    label: str
    cache: str              # "hit" | "miss" | "off" | "scan" | "skip"
    wall_s: float = 0.0
    objects: int | None = None
    strategy: str | None = None
    extra: dict = field(default_factory=dict)
    children: list["NodeStats"] = field(default_factory=list)
    span: Span | None = None

    def walk(self) -> Iterator["NodeStats"]:
        """Pre-order traversal."""
        yield self
        for child in self.children:
            yield from child.walk()


#: ``extra`` keys that carry timings (zeroed when a cached subtree is
#: re-reported, so nothing is double-counted).
_TIMING_EXTRA_KEYS = ("operator_s", "wall_s")


def _zero_timing(extra: dict) -> dict:
    return {
        key: (0.0 if key in _TIMING_EXTRA_KEYS else value)
        for key, value in extra.items()
    }


def _hit_view(stats: "NodeStats") -> "NodeStats":
    """A frozen re-report of a cached subtree: zero time, ``cache="hit"``.

    Deep-copies the whole subtree so repeated hits never alias the
    cached (or each other's) stats objects.
    """
    return NodeStats(
        stats.label,
        cache="hit",
        wall_s=0.0,
        objects=stats.objects,
        strategy=stats.strategy,
        extra=_zero_timing(stats.extra),
        children=[_hit_view(child) for child in stats.children],
    )


def _copy_stats(stats: "NodeStats") -> "NodeStats":
    """A deep copy of a stats tree (cached entries must not alias the
    tree handed to the caller, who is free to mutate it)."""
    return NodeStats(
        stats.label,
        cache=stats.cache,
        wall_s=stats.wall_s,
        objects=stats.objects,
        strategy=stats.strategy,
        extra=copy.deepcopy(stats.extra),
        children=[_copy_stats(child) for child in stats.children],
        span=stats.span,
    )


@dataclass
class ExecutionResult:
    """The outcome of one plan execution."""

    value: object
    plan: PlanNode
    stats: NodeStats
    applied_rules: tuple[str, ...]
    #: The abstract-interpretation certificate of the prepared plan
    #: (None when the pass is off or failed; see ``Engine(absint=...)``).
    certificate: PlanCertificate | None = None
    #: Interval violations found by the runtime soundness check (only
    #: populated under ``EXPLAIN ANALYZE`` / ``PROFILE``; must stay empty).
    violations: tuple[str, ...] = ()

    def find(self, label: str) -> NodeStats | None:
        """The first (outermost) node stats with the given label."""
        for stats in self.stats.walk():
            if stats.label == label:
                return stats
        return None

    @property
    def condition_probability(self) -> float | None:
        """The outermost selection's condition probability, if any."""
        for stats in self.stats.walk():
            if "condition_probability" in stats.extra:
                return stats.extra["condition_probability"]
        return None


@dataclass
class _CacheEntry:
    value: object
    extra: dict
    stats: NodeStats


@dataclass(frozen=True)
class _Prepared:
    """Everything decided about a plan before it runs: the plan to
    execute, the rules that produced it and its abstract-interpretation
    certificate (None un-accelerated, or when the pass is off or
    failed)."""

    plan: PlanNode
    applied: tuple[str, ...]
    certificate: PlanCertificate | None


@dataclass
class _Lineage:
    plan: PlanNode
    registered_version: int
    input_versions: tuple[tuple[str, int], ...]


class Engine:
    """Planner + optimizer + instrumented, caching executor.

    A plan is prepared by one rewrite fixpoint and executed bottom-up;
    how a path operator locates its path — on the catalog's columnar
    snapshot or by the walk — is not part of the plan but decided when
    the operator runs, from what it can observe (:meth:`_strategy`).

    The result tier (and, in the interpreter, the statement tier in
    front of it) is this engine's own.  The state *derived from an
    instance* — columnar snapshots with their match memos
    (:attr:`index_cache`), dataguides (:attr:`guides`), cost
    measurements — is the catalog's: immutable,
    stamped with the token it was built under, and shared by every
    engine over the same catalog object in this process
    (:meth:`repro.storage.derived.DerivedCache.of`).

    Args:
        database: the catalog plans scan (must expose ``get`` and
            ``version``; :class:`repro.storage.database.Database` does).
        optimizer: apply the rewrite rules (off = execute the
            lineage-expanded plan unrewritten, a benchmark reference).
        caching: keep a versioned result cache across executions.
        absint: run the abstract interpreter (:mod:`repro.check.absint`)
            over every prepared plan.  ``EXPLAIN`` renders the
            certificate's intervals as ``est_rows=[lo,hi] prob=[l,u]``,
            and plans whose result the certificate proves constant-empty
            short-circuit without touching an instance (counted in
            ``check.absint_skips``).
            The pass is advisory: any failure inside it falls back to
            normal execution (counted in ``check.absint_errors``).
        disk_cache: accepted and ignored (``benchmarks/e2e`` passes it).
        breaker: circuit breaker over the optimizer/cache layer (own
            instance if omitted).  Rewrite-optimizer failures degrade
            that statement to the unoptimized plan and count against the
            breaker; cache get/put failures are isolated (treated as a
            miss / skipped) and count too.  Once tripped, plans run as
            written (:meth:`execute_as_written`) — correct, just slower
            — until the cool-down elapses and a probe succeeds.
        tracer: span collector for executions (own instance if omitted;
            pass a shared one to join a larger trace, e.g. the PXQL
            interpreter's statement spans).
        metrics: metrics registry (own instance if omitted).  Cache
            counters, operator latency histograms, and objects-scanned
            totals land here; during execution it is also the ambient
            registry for the query algorithms and the sampler.
    """

    def __init__(
        self,
        database,
        optimizer: bool = True,
        caching: bool = True,
        absint: bool = True,
        disk_cache: bool | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        self.database = database
        self.optimizer = optimizer
        self.caching = caching
        self.absint = absint
        #: When set (``EXPLAIN ANALYZE`` / ``PROFILE``), observed
        #: cardinalities and probabilities are checked against the
        #: certificate's intervals after every execution.
        self.absint_verify = False
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cost = CostModel(database)
        self.result_cache = LRUCache(
            _CACHE_SIZE, name="engine.cache.results", metrics=self.metrics
        )
        self.rules = DEFAULT_RULES
        from repro.check.dataguide import DataGuideCache

        #: The catalog's snapshots and dataguides, not this engine's:
        #: every engine, pool worker and checker pass over ``database``
        #: in this process reads the same ones, so each is built once
        #: per name and token.
        self.index_cache = IndexCache.of(database)
        self.guides = DataGuideCache.of(database)
        #: The static checker's certificate of the statement about to
        #: run, under its cache key (:meth:`adopt_certificate`).
        self._adopted: tuple[tuple, PlanCertificate] | None = None
        self.breaker = (
            breaker if breaker is not None
            else CircuitBreaker(name="engine.optimizer")
        )
        self._lineage: dict[str, _Lineage] = {}
        self._lineage_sweep_at = _LINEAGE_SWEEP_MIN

    @contextmanager
    def _ambient(self):
        """Make this engine's tracer and registry ambient for a region."""
        with use_tracer(self.tracer), use_registry(self.metrics):
            yield

    # ------------------------------------------------------------------
    # Keys, versions, lineage
    # ------------------------------------------------------------------
    def versions_of(self, plan: PlanNode) -> tuple[tuple[str, int], ...]:
        """``(name, version)`` for every instance the plan scans."""
        return tuple(
            (name, self.database.version(name)) for name in scan_names(plan)
        )

    def cache_key(self, plan: PlanNode, generation: int | None = None) -> tuple:
        """The versioned cache key of a (sub-)plan.

        The plan's fingerprint plus the catalog token of every scanned
        instance: a name's version moves when this process re-registers
        it, its epoch when another process mutates it in the shared
        catalog directory — which is what lets engines in sibling
        processes over one directory keep or invalidate their cached
        results correctly, name by name.  ``generation`` is the
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
        """Remember that ``name`` currently holds the result of ``plan``.

        ``input_versions`` must be the scan versions *at execution time*
        (before any re-registration of ``name`` itself).
        """
        self._lineage[name] = _Lineage(
            plan, self.database.version(name), input_versions
        )
        if len(self._lineage) >= self._lineage_sweep_at:
            # A dropped name is never looked up again, so nothing else
            # would remove its entry; sweeping when the table has
            # doubled keeps it within a constant of the live names at
            # amortised O(1) per record.
            for recorded in list(self._lineage):
                self._lineage_plan(recorded)
            self._lineage_sweep_at = max(
                _LINEAGE_SWEEP_MIN, 2 * len(self._lineage)
            )

    def _lineage_plan(self, name: str) -> PlanNode | None:
        entry = self._lineage.get(name)
        if entry is None:
            return None
        try:
            valid = self.database.version(name) == entry.registered_version \
                and all(
                    self.database.version(input_name) == version
                    for input_name, version in entry.input_versions
                )
        except Exception:
            valid = False    # the name or an input was dropped
        if valid:
            return entry.plan
        # Versions only grow, so a stale entry can never match again.
        if self._lineage.get(name) is entry:
            del self._lineage[name]
        return None

    def expand(self, plan: PlanNode, _depth: int = 0) -> PlanNode:
        """Inline valid lineage plans under every scan, recursively:
        statement sequences become multi-operator plans the rewrite
        rules can work across."""
        if _depth >= _MAX_INLINE_DEPTH:
            return plan
        if isinstance(plan, ScanNode):
            recorded = self._lineage_plan(plan.name)
            if recorded is not None:
                return self.expand(recorded, _depth + 1)
            return plan
        children = plan.children()
        if not children:
            return plan
        new_children = tuple(
            self.expand(child, _depth + 1) for child in children
        )
        if new_children != children:
            plan = plan.with_children(new_children)
        return plan

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan_statement(self, statement: "ast.Statement") -> PlanNode | None:
        """The raw (un-expanded, un-optimized) plan of a statement."""
        return plan_statement(statement)

    def prepare(self, plan: PlanNode) -> tuple[PlanNode, tuple[str, ...]]:
        """Expand lineage and optimize.

        The optimizer layer degrades rather than fails: a rewrite
        failure falls back to the unoptimized (still correct) plan and
        counts against :attr:`breaker`; with the breaker open the layer
        is skipped entirely (the plan comes back as written) until its
        cool-down elapses.
        """
        if not self.breaker.allow():
            return plan, ()
        return self._prepare(plan, catalog_generation(self.database))

    def _decide(
        self, plan: PlanNode, generation: int, accelerated: bool
    ) -> _Prepared:
        """The plan to run and its certificate — or, un-accelerated, the
        plan as written: no lineage expansion (a registered result is
        scanned more cheaply than its lineage is recomputed), no
        rewrite, no certificate."""
        if not accelerated:
            return _Prepared(plan, (), None)
        prepared, applied = self._prepare(plan, generation)
        return _Prepared(prepared, applied, self._certify(prepared, generation))

    def _prepare(
        self, plan: PlanNode, generation: int
    ) -> tuple[PlanNode, tuple[str, ...]]:
        expanded = self.expand(plan)
        if not self.optimizer:
            return expanded, ()
        try:
            optimized = optimize(expanded, self.cost.at(generation), self.rules)
        except Exception as exc:
            self.breaker.record_failure()
            self.metrics.counter("resilience.optimizer_errors").inc()
            self.tracer.event(
                "resilience.optimizer_error",
                error=f"{type(exc).__name__}: {exc}",
            )
            return expanded, ()
        self.breaker.record_success()
        return optimized

    # ------------------------------------------------------------------
    # Abstract interpretation (interval certificates)
    # ------------------------------------------------------------------
    def certify(self, prepared: PlanNode) -> PlanCertificate | None:
        """Abstract-interpret a prepared plan into an interval certificate.

        Advisory by construction — a failure inside the interpreter is
        counted and swallowed, never surfaced to the query.
        """
        return self._certify(prepared, catalog_generation(self.database))

    def adopt_certificate(
        self, plan: PlanNode, generation: int, certificate: PlanCertificate
    ) -> None:
        """Take the static checker's certificate of ``plan`` as written:
        when no lineage is inlined and no rewrite fires, the prepared
        plan has the same key and :meth:`_certify` does not redo it."""
        self._adopted = (self.cache_key(plan, generation), certificate)

    def _certify(
        self, prepared: PlanNode, generation: int
    ) -> PlanCertificate | None:
        if not self.absint:
            return None
        adopted = self._adopted
        if (
            adopted is not None
            and adopted[0] == self.cache_key(prepared, generation)
        ):
            return adopted[1]
        from repro.check.absint import certify_plan

        try:
            with self.tracer.span("check.absint.certify"):
                return certify_plan(
                    prepared, self.database, self.guides, generation
                )
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
        self, prepared: PlanNode, certificate: PlanCertificate
    ) -> tuple[object, NodeStats]:
        """Serve a certified constant-empty result without executing."""
        assert certificate.kind in _SKIP_RESULTS
        self.metrics.counter("check.absint_skips").inc()
        with self.tracer.span(
            f"engine.node.{prepared.label()}", cache="skip",
            strategy="absint",
        ) as span:
            value = _SKIP_RESULTS[certificate.kind]()
        stats = NodeStats(
            prepared.label(), cache="skip",
            wall_s=span.wall_s, strategy="absint",
            extra={"absint": "empty"}, span=span,
        )
        return value, stats

    def _verify_certificate(
        self,
        certificate: PlanCertificate | None,
        value: object,
        stats: NodeStats,
    ) -> tuple[str, ...]:
        """Runtime soundness check: observations must lie in intervals."""
        if certificate is None or not self.absint_verify:
            return ()
        from repro.check.absint import verify_execution

        try:
            violations = tuple(verify_execution(certificate, value, stats))
        except Exception as exc:
            self._absint_error(exc)
            return ()
        for message in violations:
            self.metrics.counter("check.absint_violations").inc()
            self.tracer.event("check.absint_violation", message=message)
        return violations

    # ------------------------------------------------------------------
    # Isolated cache access
    # ------------------------------------------------------------------
    def _cache_error(self, op: str, cache: LRUCache, exc: Exception) -> None:
        self.metrics.counter("resilience.cache_errors").inc()
        self.tracer.event(
            "resilience.cache_error", cache=cache.name, op=op,
            error=f"{type(exc).__name__}: {exc}",
        )
        self.breaker.record_failure()

    def _cache_get(self, cache: LRUCache, key: tuple):
        """A cache lookup that can never fail a query (errors = miss)."""
        try:
            fault_point(f"{cache.name}.get")
            return cache.get(key)
        except Exception as exc:
            self._cache_error("get", cache, exc)
            return None

    def _cache_put(self, cache: LRUCache, key: tuple, value) -> None:
        """A cache insert that can never fail a query (errors = skip)."""
        try:
            fault_point(f"{cache.name}.put")
            cache.put(key, value)
        except Exception as exc:
            self._cache_error("put", cache, exc)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute_plan(self, plan: PlanNode) -> ExecutionResult:
        """Prepare and run a plan (as written while the breaker is open)."""
        return self._execute(plan, accelerated=self.breaker.allow())

    def execute_as_written(self, plan: PlanNode) -> ExecutionResult:
        """Run a plan with every accelerator bypassed.

        Internal: the one un-accelerated path, taken by
        :meth:`execute_plan` while the breaker is open and by the PXQL
        interpreter when it retries a failed statement.  Lineage
        expansion, rewrite rules, certificate/skip, the result cache
        and the snapshot access method are all skipped (the
        walked operators are the reference); everything below them —
        budget ticks, node spans, ``engine.objects_scanned``, the
        probability guard — is the same :meth:`_run` / :meth:`_apply`.
        """
        return self._execute(plan, accelerated=False)

    def _execute(self, plan: PlanNode, accelerated: bool) -> ExecutionResult:
        with self._ambient():
            with self.tracer.span("engine.execute_plan") as root:
                generation = catalog_generation(self.database)
                decided = self._decide(plan, generation, accelerated)
                prepared, certificate = decided.plan, decided.certificate
                if certificate is not None and certificate.skippable:
                    value, stats = self._skip_execution(prepared, certificate)
                else:
                    value, _extra, stats = self._run(
                        prepared, generation, accelerated and self.caching,
                        accelerated,
                    )
                root.attributes["rewrites"] = len(decided.applied)
            violations = self._verify_certificate(certificate, value, stats)
            self.metrics.counter("engine.executions").inc()
            self.metrics.histogram("engine.execute_s").observe(root.wall_s)
        return ExecutionResult(
            value, prepared, stats, decided.applied,
            certificate=certificate, violations=violations,
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
        self, node: PlanNode, generation: int, use_cache: bool,
        accelerated: bool = False,
    ) -> tuple[object, dict, NodeStats]:
        budget = current_budget()
        if budget is not None:
            # Cooperative guardrail: deadline / node-evaluation limits
            # surface here, at plan-node boundaries, as BudgetExceeded.
            budget.tick_node(node.label())

        if isinstance(node, ScanNode):
            with self.tracer.span(
                f"engine.node.{node.label()}", cache="scan"
            ) as span:
                pi = self.database.get(node.name)
                span.attributes["objects"] = len(pi)
            self.metrics.counter("engine.objects_scanned").inc(len(pi))
            stats = NodeStats(
                node.label(), cache="scan",
                wall_s=span.wall_s, objects=len(pi), span=span,
            )
            return pi, {}, stats

        if use_cache:
            key = self.cache_key(node, generation)
            entry = self._cache_get(self.result_cache, key)
            if entry is not None:
                value, extra, stats = self._serve_hit(node, entry)
                if budget is not None and isinstance(
                    value, ProbabilisticInstance
                ):
                    budget.charge_objects(len(value), node.label())
                return value, extra, stats

        with self.tracer.span(
            f"engine.node.{node.label()}",
            cache="miss" if use_cache else "off",
        ) as span:
            child_results = [
                self._run(child, generation, use_cache, accelerated)
                for child in node.children()
            ]
            inputs = [value for value, _extra, _stats in child_results]
            with self.tracer.span(
                "engine.apply", operator=type(node).__name__
            ) as apply_span:
                value, strategy, extra = self._apply(
                    node, inputs, generation, accelerated
                )
            span.attributes["strategy"] = strategy
            if isinstance(value, ProbabilisticInstance):
                span.attributes["objects"] = len(value)
        self.metrics.histogram(
            f"engine.operator.{type(node).__name__}.wall_s"
        ).observe(apply_span.wall_s)
        if budget is not None and isinstance(value, ProbabilisticInstance):
            budget.charge_objects(len(value), node.label())
        stats = NodeStats(
            node.label(),
            cache="miss" if use_cache else "off",
            wall_s=span.wall_s,
            objects=len(value) if isinstance(value, ProbabilisticInstance) else None,
            strategy=strategy,
            extra=dict(extra),
            children=[child_stats for _v, _e, child_stats in child_results],
            span=span,
        )
        stats.extra.setdefault("operator_s", apply_span.wall_s)
        if use_cache:
            # Cache a deep copy of the stats tree: the caller owns the
            # returned one and may mutate it freely.
            self._cache_put(
                self.result_cache,
                key, _CacheEntry(value, dict(extra), _copy_stats(stats)),
            )
        return value, extra, stats

    def _serve_hit(
        self, node: PlanNode, entry: "_CacheEntry"
    ) -> tuple[object, dict, NodeStats]:
        """Hand out a cached sub-plan result.

        The re-reported stats subtree is a deep copy with ``cache="hit"``
        and zero wall time on every descendant (nothing below this node
        re-executed, so re-reporting the original miss timings would
        double-count them — and sharing the live list would let every
        hit alias the same mutable stats objects).  Values are guarded
        the same way: instances are copied and dict results are
        deep-copied symmetrically, so callers mutating a
        returned result can never corrupt subsequent hits.
        """
        with self.tracer.span(
            f"engine.node.{node.label()}", cache="hit"
        ) as span:
            value = entry.value
            if isinstance(value, ProbabilisticInstance):
                value = value.copy()
            elif isinstance(value, dict):
                value = copy.deepcopy(value)
        stats = NodeStats(
            entry.stats.label, cache="hit",
            wall_s=span.wall_s,
            objects=entry.stats.objects,
            strategy=entry.stats.strategy,
            extra=_zero_timing(entry.extra),
            children=[_hit_view(child) for child in entry.stats.children],
            span=span,
        )
        return value, dict(entry.extra), stats

    def _apply(
        self, node: PlanNode, inputs: list, generation: int,
        accelerated: bool,
    ) -> tuple[object, str, dict]:
        if isinstance(node, (ProjectNode, QueryNode)):
            (pi,) = inputs

            def measured(source: PlanNode) -> Estimate:
                return self._measure(source, pi, generation)

            strategy = self._strategy(node, measured, accelerated)
            if strategy == "indexed":
                col = self.index_cache.try_get(
                    self.database, node.child.name, generation, pi
                )
                if col is not None and col.is_tree:
                    return self._apply_indexed(node, pi, col)
                self.metrics.counter("index.fallbacks").inc()
                strategy = self._strategy(node, measured, accelerated=False)
            if isinstance(node, ProjectNode):
                projected = _PROJECTION_OPERATORS[node.kind](pi, node.path)
                return projected, strategy, {}
            return self._apply_query(node, pi, strategy)
        if isinstance(node, SelectNode):
            (pi,) = inputs
            selection = select_local(pi, condition_of(node))
            check_probability_guard(
                selection.probability, node.prob_op, node.prob_bound
            )
            return selection.instance, "local", {
                "condition_probability": selection.probability,
            }
        if isinstance(node, ProductNode):
            left, right = inputs
            product = cartesian_product(left, right, node.new_root)
            return product, "local", {}
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

        ``"indexed"``: the path is located on the catalog's shared
        columnar snapshot — only when the statement runs accelerated,
        the input is a scanned name (a derived instance has no token to
        keep a snapshot under) and it measures as a tree (the encoding's
        domain; the Section 6 algorithms fed the match assume it).
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
    ) -> tuple[object, str, dict]:
        """Evaluate a path operator over a scanned tree: the match, the
        parent pointers and the memoised root-chain products
        (:meth:`ColumnarInstance.reach`) come from the snapshot and feed
        the same Section 6 algorithms the walked operators run, each
        computing its answer and nothing else — only ``PROJECT`` builds
        the projection's OPFs.  ``col.is_tree`` is the tree proof, made
        once when the snapshot was built under this token, so they skip
        their own O(V) check."""

        def match() -> PathMatch:
            with self.tracer.span(
                "index.match", path=str(node.path), instance=node.child.name
            ) as span:
                found = match_path_indexed(col, node.path)
                span.attributes["matched"] = len(found.matched)
            return found

        if isinstance(node, ProjectNode):
            sweep = epsilon_pass(pi, node.path, match=match(), assume_tree=True)
            projected = instance_from_epsilon_pass(pi, node.path, sweep)
            return projected, "indexed", {"index": "columnar"}

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
                value = root_epsilon(
                    pi, node.path, match=match(), assume_tree=True
                )
            elif node.kind == "count":
                value = expected_match_count(
                    pi, node.path, match=match(), snapshot=col
                )
            else:  # "dist"
                value = match_count_distribution(
                    pi, node.path, match=match(), assume_tree=True
                )
        self.metrics.counter(f"query.{node.kind}").inc()
        self.metrics.histogram("query.wall_s").observe(qspan.wall_s)
        return value, "indexed", {"index": "columnar"}

    def _measure(
        self, source: PlanNode, pi: ProbabilisticInstance, generation: int
    ) -> Estimate:
        """The measurements of ``pi``, the output of ``source``: a
        scanned name's are memoised under its token (a lookup that can
        never fail a query); a derived input has no token and is
        measured directly."""
        if isinstance(source, ScanNode):
            try:
                return self.cost.at(generation).scan(source.name, pi)
            except Exception:
                pass
        return measure_instance(pi)

    def _apply_query(
        self, node: QueryNode, pi: ProbabilisticInstance, strategy: str
    ) -> tuple[object, str, dict]:
        """The walked query operators, under the strategy decided."""
        if node.kind == "dist":
            return match_count_distribution(pi, node.path), strategy, {}
        engine = QueryEngine(pi, strategy=strategy)
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
        return value, engine.strategy, dict(engine.stats)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def cache_stats(self) -> dict[str, dict[str, int]]:
        """Hit/miss/eviction counters of the result cache."""
        return {"results": self.result_cache.stats.as_dict()}

    def explain(self, plan: PlanNode) -> str:
        """Render the optimized plan with estimates (no execution)."""
        generation = catalog_generation(self.database)
        accelerated = self.breaker.allow()
        decided = self._decide(plan, generation, accelerated)
        lines = _render_plan(
            decided.plan, self, decided.certificate, generation, accelerated
        )
        lines.append(_rules_line(decided.applied))
        if decided.certificate is not None:
            lines.append(_certificate_line(decided.certificate))
        return "\n".join(lines)

    def explain_analyze(self, result: ExecutionResult) -> str:
        """Render an executed plan with per-node measurements."""
        lines = _render_stats(result.stats)
        lines.append(_rules_line(result.applied_rules))
        lines.append(f"cache: results [{self.result_cache.stats}]")
        if result.certificate is not None:
            lines.append(_certificate_line(result.certificate))
            if self.absint_verify:
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


def _rules_line(applied: tuple[str, ...]) -> str:
    return f"rewrites: {', '.join(applied) if applied else 'none'}"


def _tree_lines(render_node, children_of, root) -> list[str]:
    lines = [render_node(root)]

    def recurse(node, prefix: str) -> None:
        children = children_of(node)
        for index, child in enumerate(children):
            last = index == len(children) - 1
            branch = "└─ " if last else "├─ "
            lines.append(prefix + branch + render_node(child))
            recurse(child, prefix + ("   " if last else "│  "))

    recurse(root, "")
    return lines


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
    generation: int,
    accelerated: bool,
) -> list[str]:
    cost = engine.cost.at(generation)
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
            details += ["strategy=absint", "cache=skip"]
        elif not isinstance(node, ScanNode):
            # The same question the operator asks when it runs.
            strategy = engine._strategy(node, cost.estimate, accelerated)
            details.append(f"strategy={strategy}")
            if engine.caching:
                if not accelerated:
                    details.append("cache=off")
                elif engine.result_cache.peek(engine.cache_key(node, generation)):
                    details.append("cache=warm")
                else:
                    details.append("cache=cold")
        return f"{node.label()}  ({', '.join(details)})"

    return _tree_lines(render, lambda node: node.children(), plan)


def _render_stats(stats: NodeStats) -> list[str]:
    def render(node: NodeStats) -> str:
        details = [f"{node.wall_s * 1e3:.3f} ms"]
        if node.objects is not None:
            details.append(f"{node.objects} objects")
        if node.strategy is not None:
            details.append(f"strategy={node.strategy}")
        details.append(f"cache={node.cache}")
        if "condition_probability" in node.extra:
            details.append(
                f"P(condition)={node.extra['condition_probability']:.6g}"
            )
        if "stderr" in node.extra:
            details.append(f"stderr={node.extra['stderr']:.3g}")
        return f"{node.label}  ({', '.join(details)})"

    return _tree_lines(render, lambda node: node.children, stats)
