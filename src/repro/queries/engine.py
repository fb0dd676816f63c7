"""A strategy-selecting facade over the three query engines.

The same question — "what is the probability that object ``o`` satisfies
path ``p``?" — can be answered three ways:

* ``"local"`` — the Section 6 algorithms (fast; tree-structured
  instances only);
* ``"bayes"`` — variable elimination on the induced Bayesian network
  (any acyclic instance);
* ``"enumerate"`` — brute-force marginalization over ``Domain(I)``
  (exponential; the reference the others are tested against);
* ``"sample"`` — Monte-Carlo forward sampling (unbiased estimates with
  standard errors; the only engine for huge DAG instances).

``"auto"`` picks ``local`` for trees and ``bayes`` otherwise; the
network is the DAG path only (``local`` compiles none on a tree).
"""

from __future__ import annotations

import math

from repro.analysis import existence_probability
from repro.bayesnet.mapping import PXMLBayesianNetwork
from repro.core.instance import ProbabilisticInstance
from repro.errors import QueryError, SemanticsError
from repro.obs.metrics import current_registry
from repro.obs.tracing import Span, current_tracer
from repro.queries.chain import chain_probability
from repro.queries.point import existential_query, point_query
from repro.semantics.global_interpretation import GlobalInterpretation
from repro.semistructured.graph import Oid
from repro.semistructured.paths import PathExpression, match_path

_STRATEGIES = ("auto", "local", "bayes", "enumerate", "sample")


class QueryEngine:
    """Answers probabilistic point/existential/count/chain queries.

    Every query runs inside a ``query.<kind>`` span on the ambient
    tracer (:func:`repro.obs.tracing.current_tracer`), so standalone use
    reports into the global tracer and engine-driven use nests under the
    executor's plan-node spans.  The span is the query's record: the
    strategy actually used, its wall time, and — under the ``sample``
    strategy — the sample count and the estimate's standard error
    (``samples`` / ``stderr``), which PXQL's ``EXPLAIN ANALYZE`` /
    ``PROFILE`` print.  The ambient metrics registry counts queries per
    kind (``query.<kind>``) with a ``query.wall_s`` latency histogram.
    """

    def __init__(
        self,
        pi: ProbabilisticInstance,
        strategy: str = "auto",
        samples: int = 2000,
        seed: int | None = None,
    ) -> None:
        if strategy not in _STRATEGIES:
            raise QueryError(
                f"unknown strategy {strategy!r}; choose one of {_STRATEGIES}"
            )
        self.pi = pi
        if strategy == "auto":
            strategy = "local" if pi.weak.is_tree() else "bayes"
        self.strategy = strategy
        self.samples = samples
        self.seed = seed
        self._bn: PXMLBayesianNetwork | None = None
        self._global: GlobalInterpretation | None = None

    def _record(self, query: str, span: Span, extra: dict | None = None) -> None:
        span.attributes.update(extra or {})
        registry = current_registry()
        registry.counter(f"query.{query}").inc()
        registry.histogram("query.wall_s").observe(span.wall_s)

    # ------------------------------------------------------------------
    def _bayes(self) -> PXMLBayesianNetwork:
        if self._bn is None:
            self._bn = PXMLBayesianNetwork(self.pi)
        return self._bn

    def _enumeration(self) -> GlobalInterpretation:
        if self._global is None:
            self._global = GlobalInterpretation.from_local(self.pi)
        return self._global

    @staticmethod
    def _as_path(path: PathExpression | str) -> PathExpression:
        return PathExpression.parse(path) if isinstance(path, str) else path

    # ------------------------------------------------------------------
    @staticmethod
    def _estimate_extra(estimate) -> dict:
        return {"samples": estimate.samples, "stderr": estimate.stderr}

    def _point(self, path: PathExpression, oid: Oid) -> tuple[float, dict]:
        if self.strategy == "local":
            return point_query(self.pi, path, oid), {}
        if self.strategy == "bayes":
            return self._bayes().point_query(path, oid), {}
        if self.strategy == "sample":
            from repro.semantics.sampling import estimate_point_query

            estimate = estimate_point_query(
                self.pi, path, oid, self.samples, self.seed
            )
            return estimate.probability, self._estimate_extra(estimate)
        return self._enumeration().prob_object_at_path(path, oid), {}

    def point(self, path: PathExpression | str, oid: Oid) -> float:
        """``P(o in p)`` (Definition 6.1)."""
        path = self._as_path(path)
        with current_tracer().span(
            "query.point", strategy=self.strategy
        ) as span:
            value, extra = self._point(path, oid)
        self._record("point", span, extra)
        return value

    def count(self, path: PathExpression | str) -> float:
        """``E[#objects satisfying p]`` as the sum of ``P(o in p)`` over
        the structural matches: linearity of expectation needs no tree,
        so every strategy that answers a point query answers this."""
        path = self._as_path(path)
        with current_tracer().span(
            "query.count", strategy=self.strategy
        ) as span:
            matched = match_path(self.pi.weak.graph(), path).matched
            value = math.fsum(self._point(path, oid)[0] for oid in matched)
        self._record("count", span)
        return value

    def exists(self, path: PathExpression | str) -> float:
        """``P(exists o: o in p)``."""
        path = self._as_path(path)
        extra: dict = {}
        with current_tracer().span(
            "query.exists", strategy=self.strategy
        ) as span:
            if self.strategy == "local":
                value = existential_query(self.pi, path)
            elif self.strategy == "bayes":
                value = self._bayes().existential_query(path)
            elif self.strategy == "sample":
                from repro.semantics.sampling import estimate_existential_query

                estimate = estimate_existential_query(
                    self.pi, path, self.samples, self.seed
                )
                value, extra = estimate.probability, self._estimate_extra(estimate)
            else:
                value = self._enumeration().prob_path_nonempty(path)
        self._record("exists", span, extra)
        return value

    def chain(self, chain: list[Oid]) -> float:
        """``P(r.o1...on)`` for an explicit object chain."""
        extra: dict = {}

        def has_chain(world) -> bool:
            for parent, child in zip(chain, chain[1:]):
                if parent not in world or child not in world.children(parent):
                    return False
            return True

        with current_tracer().span(
            "query.chain", strategy=self.strategy
        ) as span:
            if self.strategy == "local":
                value = chain_probability(self.pi, chain)
            elif self.strategy == "bayes":
                value = self._bayes().chain_probability(chain)
            elif self.strategy == "sample":
                from repro.semantics.sampling import estimate_probability

                estimate = estimate_probability(
                    self.pi, has_chain, self.samples, self.seed
                )
                value, extra = estimate.probability, self._estimate_extra(estimate)
            else:
                value = self._enumeration().event_probability(has_chain)
        self._record("chain", span, extra)
        return value

    def object_exists(self, oid: Oid) -> float:
        """``P(o occurs in a compatible world)`` — situation 4 of Section 2."""
        extra: dict = {}
        with current_tracer().span(
            "query.object_exists", strategy=self.strategy
        ) as span:
            if self.strategy == "local":
                # The product up the object's one parent chain (Section
                # 6.2); a DAG has no local form, the network answers.
                try:
                    value = existence_probability(self.pi, oid)
                except SemanticsError:
                    value = self._bayes().prob_exists(oid)
            elif self.strategy == "bayes":
                value = self._bayes().prob_exists(oid)
            elif self.strategy == "sample":
                from repro.semantics.sampling import estimate_probability

                estimate = estimate_probability(
                    self.pi, lambda world: oid in world, self.samples, self.seed
                )
                value, extra = estimate.probability, self._estimate_extra(estimate)
            else:
                value = self._enumeration().prob_object_exists(oid)
        self._record("object_exists", span, extra)
        return value
