"""Abstract interpretation of plans over probability/cardinality intervals.

:func:`certify_plan` runs an abstract interpreter over the engine's
logical plan IR with two lattice domains:

* :class:`ProbInterval` — a closed subinterval of ``[0, 1]`` bounding a
  probability;
* :class:`CardInterval` — an integer interval (with ``None`` as +inf)
  bounding an object / match count.

Each plan operator has a transfer function: scans seed the domains from
the catalog (exact object counts) and the strong dataguide's per-path /
per-object existence intervals (:mod:`repro.check.dataguide`); ancestor
projection narrows cardinalities from the structural match; selection
multiplies chain-occurrence bounds with exact VALUE / CARD clause
factors and compares probability guards against the resulting interval;
product composes; query nodes map exists / count / point / dist onto
certified output bounds.  The result is a :class:`PlanCertificate`
carrying one :class:`NodeFacts` per plan node (pre-order, mirroring
:func:`repro.engine.plan.walk`) plus whole-plan conclusions: a numeric
result interval, a bound on the ``DIST`` support, and an *emptiness
proof* when the result is a statically known constant.

Soundness discipline:

* the guide is **ignored when truncated** — a truncated guide's
  per-object bounds may miss contributions from unexpanded parents;
* every widening is toward ``[0, 1]`` / ``[lo, +inf]``: missing OPFs,
  unknown shapes and non-tree instances lose precision, never soundness;
* a certificate is only marked :attr:`~PlanCertificate.skippable` when
  the plan provably cannot raise (no SELECT whose guard or normalization
  can fail, no PRODUCT whose operands can collide) *and* the certified
  result is one of the engine's constant skip values.

:func:`absint_diagnostics` turns a certificate into ``PX26x``
diagnostics and :func:`verify_execution` checks an actual execution
against it — the runtime half of the contract: every observed
cardinality and probability must lie inside its predicted interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable

from repro.check.dataguide import DataGuideCache
from repro.check.diagnostics import WARNING, Diagnostic
from repro.check.locate import UNKNOWN, Site, scan_site
from repro.core.instance import ProbabilisticInstance
from repro.engine.plan import (
    PlanNode,
    ProductNode,
    ProjectNode,
    QueryNode,
    ScanNode,
    SelectNode,
    walk,
)
from repro.semistructured.paths import PathExpression
from repro.storage.derived import catalog_generation

#: Slack applied when comparing guard bounds against interval endpoints,
#: mirroring the engine's probability tolerance.
EPSILON = 1e-9


# ----------------------------------------------------------------------
# Domains
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProbInterval:
    """A closed probability interval ``[lo, hi]`` inside ``[0, 1]``."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.lo <= self.hi <= 1.0):
            raise ValueError(f"malformed probability interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, p: float) -> "ProbInterval":
        clamped = min(1.0, max(0.0, p))
        return cls(clamped, clamped)

    @classmethod
    def top(cls) -> "ProbInterval":
        return cls(0.0, 1.0)

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, p: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= p <= self.hi + tol

    def times(self, other: "ProbInterval") -> "ProbInterval":
        return ProbInterval(self.lo * other.lo, min(1.0, self.hi * other.hi))

    def hull(self, other: "ProbInterval") -> "ProbInterval":
        return ProbInterval(min(self.lo, other.lo), max(self.hi, other.hi))

    def __str__(self) -> str:
        return f"[{self.lo:.6g}, {self.hi:.6g}]"


#: The zero-probability point — the interval behind every emptiness proof.
ZERO = ProbInterval(0.0, 0.0)
ONE = ProbInterval(1.0, 1.0)


@dataclass(frozen=True)
class CardInterval:
    """An integer interval ``[lo, hi]``; ``hi=None`` means unbounded."""

    lo: int
    hi: int | None

    def __post_init__(self) -> None:
        if self.lo < 0 or (self.hi is not None and self.hi < self.lo):
            raise ValueError(f"malformed cardinality interval [{self.lo}, {self.hi}]")

    @classmethod
    def exactly(cls, n: int) -> "CardInterval":
        return cls(n, n)

    @classmethod
    def top(cls) -> "CardInterval":
        return cls(0, None)

    @classmethod
    def at_most(cls, n: int) -> "CardInterval":
        return cls(0, n)

    @property
    def is_exact(self) -> bool:
        return self.hi is not None and self.lo == self.hi

    def contains(self, n: int) -> bool:
        return self.lo <= n and (self.hi is None or n <= self.hi)

    def plus(self, other: "CardInterval", shift: int = 0) -> "CardInterval":
        hi = (
            None if self.hi is None or other.hi is None
            else max(0, self.hi + other.hi + shift)
        )
        return CardInterval(max(0, self.lo + other.lo + shift), hi)

    def __str__(self) -> str:
        hi = "inf" if self.hi is None else str(self.hi)
        return f"[{self.lo}, {hi}]"


# ----------------------------------------------------------------------
# Facts and certificates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NodeFacts:
    """The abstract value the interpreter inferred for one plan node.

    ``kind`` is ``"instance"`` for instance-producing nodes (scan,
    project, select, product) and ``"query"`` for numeric ones; ``card`` bounds the output object
    count (instance nodes) or the structural match count (query nodes);
    ``prob`` bounds the node's characteristic probability (existence of
    the navigated path, a selection's condition probability, a query's
    clamped result); ``condition`` is set on selections only and repeats
    the condition-probability interval the runtime must land in.
    """

    label: str
    kind: str                        # "instance" | "query"
    card: CardInterval
    prob: ProbInterval
    condition: ProbInterval | None = None
    exact: bool = False


@dataclass(frozen=True)
class GuardFinding:
    """A statically decided probability guard on one selection node."""

    label: str
    path: PathExpression
    oid: str
    op: str
    bound: float
    condition: ProbInterval
    verdict: str                     # "always" | "never" | "unsatisfiable"


@dataclass(frozen=True)
class PlanCertificate:
    """What the abstract interpreter proved about one prepared plan.

    ``facts`` mirrors :func:`repro.engine.plan.walk` (pre-order, one
    entry per node).  ``result`` bounds the numeric result of a query
    root (for ``dist`` it bounds ``P(count >= 1)``; ``support`` then
    bounds the match counts carrying mass).  ``empty`` asserts the
    result is the kind's constant skip value; ``skippable`` additionally
    asserts executing the plan cannot raise, so the engine may answer
    from the certificate alone.
    """

    facts: tuple[NodeFacts, ...]
    kind: str | None = None
    result: tuple[float, float] | None = None
    support: CardInterval | None = None
    empty: bool = False
    skippable: bool = False
    guards: tuple[GuardFinding, ...] = ()
    zero_conditions: tuple[tuple[str, str, str], ...] = ()

    @property
    def root(self) -> NodeFacts:
        return self.facts[0]


# ----------------------------------------------------------------------
# Abstract state
# ----------------------------------------------------------------------
@dataclass
class _State:
    """Abstract value + residual shape knowledge for one sub-plan.

    ``site`` is where paths are located on the sub-plan's output
    (:mod:`repro.check.locate`): its ``pi`` / ``guide`` are only present
    directly above a scan (the same precision cliff the plan checker
    has); its ``graph`` survives ancestor projection as the exact result
    structure.
    """

    card: CardInterval
    prob: ProbInterval
    exact: bool
    condition: ProbInterval | None = None
    result: tuple[float, float] | None = None
    site: Site = UNKNOWN
    tree: bool = False


def _opaque_instance() -> _State:
    return _State(card=CardInterval.top(), prob=ProbInterval.top(), exact=False)


class _AbstractInterpreter:
    """Bottom-up interval propagation over one plan tree."""

    def __init__(
        self, database: Any, guides: DataGuideCache, generation: int
    ) -> None:
        self.database = database
        self.guides = guides
        self.generation = generation
        self.states: dict[int, _State] = {}
        self.guards: list[GuardFinding] = []
        self.zero_conditions: list[tuple[str, str, str]] = []
        self.can_raise = False

    # ------------------------------------------------------------------
    def state_of(self, node: PlanNode) -> _State:
        cached = self.states.get(id(node))
        if cached is not None:
            return cached
        state = self._transfer(node)
        self.states[id(node)] = state
        return state

    def _transfer(self, node: PlanNode) -> _State:
        if isinstance(node, ScanNode):
            return self._scan(node)
        if isinstance(node, ProjectNode):
            return self._project(node.kind, node.path, self.state_of(node.child))
        if isinstance(node, SelectNode):
            return self._select(node, self.state_of(node.child))
        if isinstance(node, ProductNode):
            self.can_raise = True      # operand collision raises AlgebraError
            return self._product(self.state_of(node.left), self.state_of(node.right))
        if isinstance(node, QueryNode):
            return self._query(node.kind, node.path, node.oid, node.chain,
                               self.state_of(node.child))
        for unknown_child in node.children():
            self.state_of(unknown_child)
        self.can_raise = True
        return _opaque_instance()

    # ------------------------------------------------------------------
    def _scan(self, node: ScanNode) -> _State:
        try:
            pi = self.database.get(node.name)
        except Exception:
            self.can_raise = True
            return _opaque_instance()
        site = scan_site(
            self.database, node.name, pi, self.guides, self.generation
        )
        assert site.graph is not None
        tree = (
            site.guide.is_tree if site.guide is not None
            else site.graph.is_tree(pi.root)
        )
        return _State(
            card=CardInterval.exactly(len(pi)),
            prob=ONE,
            exact=True,
            site=site,
            tree=tree,
        )

    # ------------------------------------------------------------------
    def _project(self, kind: str, path: PathExpression, child: _State) -> _State:
        if kind != "ancestor":
            # Descendant / single projections re-root and re-label; only
            # the size bound survives (the result always has a root).
            return _State(
                card=CardInterval(1, child.card.hi),
                prob=ProbInterval.top(),
                exact=False,
            )
        site = child.site
        match = site.match(path)
        if match is None:
            return _State(
                card=CardInterval(1, child.card.hi),
                prob=ProbInterval.top(),
                exact=False,
            )
        if match.is_empty:
            # The result is the bare root, deterministically.
            return _State(
                card=CardInterval.exactly(1), prob=ONE, exact=True,
                site=site.projected(), tree=True,
            )
        result = site.projected(match)
        assert result.graph is not None
        kept = len(result.graph)
        # The projection's weak structure is exactly the matched chains
        # on trees; on DAGs (or when the guide prunes zero-probability
        # targets the structural match still contains) only the upper
        # bound is safe.
        exact_structure = child.tree
        card = (
            CardInterval.exactly(kept) if exact_structure
            else CardInterval(1, kept)
        )
        prob = ProbInterval.top()
        guide = site.guide_for(path)
        if guide is not None:
            lo, hi = guide.interval(path.labels)
            prob = ProbInterval(lo, min(1.0, hi))
        return _State(
            card=card, prob=prob, exact=exact_structure and child.exact,
            site=result, tree=child.tree,
        )

    # ------------------------------------------------------------------
    def _select(self, node: SelectNode, child: _State) -> _State:
        self.can_raise = True          # zero condition / failed guard raises
        condition = self._condition_interval(node, child)
        if node.prob_op is not None and node.prob_bound is not None:
            self._judge_guard(node, condition)
        if condition.hi <= EPSILON:
            self.zero_conditions.append(
                (node.label(), str(node.path), node.oid)
            )
        # Selection conditions the distributions in place: the weak
        # structure (hence the object count) is exactly the child's.
        return _State(
            card=child.card,
            prob=condition,
            exact=child.exact and condition.is_point,
            condition=condition,
            site=Site(child.site.root, child.site.graph),
            tree=child.tree,
        )

    def _condition_interval(self, node: SelectNode, child: _State) -> ProbInterval:
        alive = child.site.alive(node.path)
        if alive is not None and node.oid not in alive:
            return ZERO
        base = ProbInterval.top()
        guide = child.site.guide_for(node.path)
        if guide is not None:
            entry = guide.entry(node.path.labels)
            if entry is not None:
                bounds = entry.object_bounds.get(node.oid)
                if bounds is not None:
                    base = ProbInterval(bounds[0], min(1.0, bounds[1]))
        return base.times(self._clause_factor(node, child.site.pi))

    def _clause_factor(
        self, node: SelectNode, pi: ProbabilisticInstance | None
    ) -> ProbInterval:
        """The exact probability factor of a VALUE / CARD clause."""
        if pi is None:
            if node.value is not None or node.card_label is not None:
                return ProbInterval.top()
            return ONE
        if node.value is not None:
            vpf = pi.effective_vpf(node.oid)
            if vpf is None or not pi.weak.is_leaf(node.oid):
                return ProbInterval.top()
            return ProbInterval.point(vpf.prob(node.value))
        if node.card_label is not None and node.card_bounds is not None:
            opf = pi.opf(node.oid)
            if opf is None:
                return ProbInterval.top()
            low, high = node.card_bounds
            pool = frozenset(pi.weak.lch(node.oid, node.card_label))
            mass = sum(
                p for child_set, p in opf.support()
                if low <= len(child_set & pool) <= high
            )
            return ProbInterval.point(mass)
        return ONE

    def _judge_guard(self, node: SelectNode, condition: ProbInterval) -> None:
        op, bound = node.prob_op, node.prob_bound
        assert op is not None and bound is not None
        if not (0.0 <= bound <= 1.0):
            return      # constant-only verdict; PX225/PX226 already cover it
        # Satisfied region: "> b" = (b, 1], ">= b" = [b, 1],
        # "< b" = [0, b), "<= b" = [0, b].  "always" requires the whole
        # interval inside the region, "never" an empty intersection —
        # both with an EPSILON margin so float noise can only make the
        # verdict more conservative, never wrong.
        if op == ">":
            always = condition.lo > bound + EPSILON
            never = condition.hi <= bound - EPSILON
        elif op == ">=":
            always = condition.lo >= bound + EPSILON
            never = condition.hi < bound - EPSILON
        elif op == "<":
            always = condition.hi < bound - EPSILON
            never = condition.lo >= bound + EPSILON
        else:  # "<="
            always = condition.hi <= bound - EPSILON
            never = condition.lo > bound + EPSILON
        if always or never:
            self.guards.append(GuardFinding(
                node.label(), node.path, node.oid, op, bound, condition,
                "always" if always else "never",
            ))

    # ------------------------------------------------------------------
    def _product(self, left: _State, right: _State) -> _State:
        return _State(
            card=left.card.plus(right.card, shift=-1),
            prob=left.prob.times(right.prob),
            exact=False,
        )

    # ------------------------------------------------------------------
    def _query(
        self,
        kind: str,
        path: PathExpression | None,
        oid: str | None,
        chain: tuple[str, ...] | None,
        child: _State,
    ) -> _State:
        if kind == "chain":
            return self._chain_query(chain, child)
        if kind == "prob":
            return self._object_query(oid, child)
        assert path is not None
        alive = child.site.alive(path)
        if alive is None:
            hi = child.card.hi
            return _State(
                card=CardInterval(0, hi),
                prob=ProbInterval.top(),
                exact=False,
                result=(0.0, math.inf) if kind == "count" else (0.0, 1.0),
            )
        guide = child.site.guide_for(path)
        entry = guide.entry(path.labels) if guide is not None else None

        if kind == "point":
            if oid is None or oid not in alive:
                result = (0.0, 0.0)
            elif entry is not None:
                lo, hi_p = entry.object_bounds.get(oid, (0.0, 1.0))
                result = (lo, min(1.0, hi_p))
            else:
                result = (0.0, 1.0)
            return _State(
                card=CardInterval.at_most(len(alive)),
                prob=ProbInterval(result[0], result[1]),
                exact=result[0] == result[1],
                result=result,
            )

        if not alive:
            constant = (0.0, 0.0)
            return _State(
                card=CardInterval.exactly(0), prob=ZERO, exact=True,
                result=constant,
            )

        if kind == "exists":
            if entry is not None:
                result = (entry.lower, entry.upper)
            else:
                result = (0.0, 1.0)
            return _State(
                card=CardInterval.at_most(len(alive)),
                prob=ProbInterval(result[0], min(1.0, result[1])),
                exact=False,
                result=result,
            )
        if kind == "count":
            if entry is not None:
                lows: list[float] = []
                highs: list[float] = []
                for target in alive:
                    lo, hi_p = entry.object_bounds.get(target, (0.0, 1.0))
                    lows.append(max(0.0, lo))
                    highs.append(min(1.0, hi_p))
                # fsum: the bound must not depend on the iteration
                # order of a set of object ids.
                result = (math.fsum(lows), math.fsum(highs))
            else:
                result = (0.0, float(len(alive)))
            return _State(
                card=CardInterval.at_most(len(alive)),
                prob=ProbInterval(
                    min(1.0, result[0]), min(1.0, result[1])
                ),
                exact=False,
                result=result,
            )
        # "dist": bound P(count >= 1) by the exists interval; the match
        # count itself can never exceed the alive set.
        if entry is not None:
            result = (entry.lower, entry.upper)
        else:
            result = (0.0, 1.0)
        return _State(
            card=CardInterval.at_most(len(alive)),
            prob=ProbInterval(result[0], min(1.0, result[1])),
            exact=False,
            result=result,
        )

    def _chain_query(
        self, chain: tuple[str, ...] | None, child: _State
    ) -> _State:
        pi = child.site.pi
        if not chain or pi is None or child.site.root != chain[0]:
            return _State(
                card=CardInterval.top(), prob=ProbInterval.top(),
                exact=False, result=(0.0, 1.0),
            )
        interval = ONE
        for parent, target in zip(chain, chain[1:]):
            opf = pi.opf(parent)
            if opf is None:
                interval = interval.times(ProbInterval.top())
            else:
                interval = interval.times(
                    ProbInterval.point(opf.marginal_inclusion(target))
                )
        return _State(
            card=CardInterval.top(), prob=interval,
            exact=interval.is_point,
            result=(interval.lo, interval.hi),
        )

    def _object_query(self, oid: str | None, child: _State) -> _State:
        guide = child.site.guide
        if oid is None or guide is None:
            return _State(
                card=CardInterval.top(), prob=ProbInterval.top(),
                exact=False, result=(0.0, 1.0),
            )
        lows: list[float] = []
        high_total = 0.0
        found = False
        for entry in guide.paths():
            bounds = entry.object_bounds.get(oid)
            if bounds is None:
                continue
            found = True
            lows.append(bounds[0])
            high_total += bounds[1]
        if not found:
            # The guide enumerates every object with nonzero existence
            # probability; absence is an emptiness proof.
            return _State(
                card=CardInterval.exactly(0), prob=ZERO, exact=True,
                result=(0.0, 0.0),
            )
        result = (max(lows), min(1.0, high_total))
        return _State(
            card=CardInterval.top(),
            prob=ProbInterval(result[0], result[1]),
            exact=result[0] == result[1],
            result=result,
        )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
#: Query kinds the engine can answer from an emptiness certificate.
SKIPPABLE_KINDS = ("exists", "count", "point", "dist")


def _facts_of(node: PlanNode, state: _State) -> NodeFacts:
    kind = "query" if isinstance(node, QueryNode) else "instance"
    return NodeFacts(
        label=node.label(), kind=kind, card=state.card, prob=state.prob,
        condition=state.condition, exact=state.exact,
    )


def certify_plan(
    plan: PlanNode,
    database: Any,
    guides: DataGuideCache | None = None,
    generation: int | None = None,
) -> PlanCertificate:
    """Abstractly interpret a (prepared) plan into a certificate.

    ``generation`` is the catalog generation the calling statement
    already read (every guide lookup is keyed under it); omitted, it is
    read here, once.
    """
    interpreter = _AbstractInterpreter(
        database,
        guides if guides is not None else DataGuideCache.of(database),
        generation if generation is not None else catalog_generation(database),
    )
    root_state = interpreter.state_of(plan)
    facts = tuple(
        _facts_of(node, interpreter.states[id(node)]) for node in walk(plan)
    )
    kind = plan.kind if isinstance(plan, QueryNode) else None
    result = root_state.result if kind is not None else None
    support: CardInterval | None = None
    if kind == "dist":
        support = root_state.card
    empty = (
        kind in SKIPPABLE_KINDS
        and result is not None
        and result[0] == result[1] == 0.0
    )
    skippable = empty and not interpreter.can_raise
    return PlanCertificate(
        facts=facts,
        kind=kind,
        result=result,
        support=support,
        empty=empty,
        skippable=skippable,
        guards=tuple(interpreter.guards),
        zero_conditions=tuple(interpreter.zero_conditions),
    )


def absint_diagnostics(
    plan: PlanNode,
    certificate: PlanCertificate,
    subject: str | None = None,
    flagged: Iterable[tuple[str, str]] = (),
) -> list[Diagnostic]:
    """``PX26x`` findings derived from a certificate.

    ``flagged`` is a set of ``(path, oid)`` pairs the base plan checker
    already reported a ``PX22x`` finding for; guard / zero-condition
    findings on those selections are suppressed rather than duplicated.
    All ``PX26x`` findings are warnings: they are advisory certificates
    (the engine consumes them as optimizations), never execution
    blockers.
    """
    already = {(str(path), oid) for path, oid in flagged}
    diagnostics: list[Diagnostic] = []
    if certificate.empty and certificate.kind is not None:
        constant = (
            "the empty distribution {0: 1}" if certificate.kind == "dist"
            else "0"
        )
        diagnostics.append(Diagnostic(
            code="PX260", severity=WARNING,
            message=(
                f"{certificate.kind.upper()} result is provably constant: "
                f"interval analysis certifies the answer is always {constant}"
            ),
            subject=subject,
            hint="the engine short-circuits this plan (check.absint_skips)"
            if certificate.skippable else None,
        ))
    for finding in certificate.guards:
        if (str(finding.path), finding.oid) in already:
            continue
        if finding.verdict == "always":
            diagnostics.append(Diagnostic(
                code="PX261", severity=WARNING,
                message=(
                    f"probability guard PROB {finding.op} {finding.bound:g} is "
                    f"always true: the condition probability is certified to "
                    f"lie in {finding.condition}"
                ),
                subject=subject, oid=finding.oid, path=str(finding.path),
                hint="drop the redundant guard",
            ))
        else:
            diagnostics.append(Diagnostic(
                code="PX263", severity=WARNING,
                message=(
                    f"probability guard PROB {finding.op} {finding.bound:g} is "
                    f"unsatisfiable: the condition probability is certified to "
                    f"lie in {finding.condition}"
                ),
                subject=subject, oid=finding.oid, path=str(finding.path),
                hint="executing this raises EmptyResultError",
            ))
    for label, path, oid in certificate.zero_conditions:
        if (path, oid) in already:
            continue
        diagnostics.append(Diagnostic(
            code="PX262", severity=WARNING,
            message=(
                f"selection condition of {label} has probability zero by "
                f"interval analysis"
            ),
            subject=subject, oid=oid, path=path,
            hint="executing this raises EmptyResultError",
        ))
    return diagnostics


def verify_execution(
    certificate: PlanCertificate,
    value: object,
    stats: Any,
    tolerance: float = 1e-6,
) -> list[str]:
    """Check an executed plan's observations against its certificate.

    ``stats`` is the :class:`repro.engine.executor.NodeStats` tree of the
    execution.  Returns a list of violation messages — empty when every
    observed cardinality, condition probability and result lies inside
    its predicted interval.  When the executed shape diverged from the
    certified plan (a cached subtree flattened the stats) the check is
    skipped rather than guessed at.
    """
    flat = list(stats.walk())
    if len(flat) != len(certificate.facts):
        return []
    violations: list[str] = []
    for facts, observed in zip(certificate.facts, flat):
        if facts.label != observed.label:
            return []      # shapes diverged: nothing comparable
        if (
            facts.kind == "instance"
            and observed.objects is not None
            and not facts.card.contains(observed.objects)
        ):
            violations.append(
                f"{facts.label}: observed {observed.objects} objects outside "
                f"certified {facts.card}"
            )
        if facts.condition is not None:
            probability = observed.extra.get("condition_probability")
            if probability is not None and not facts.condition.contains(
                probability, tolerance
            ):
                violations.append(
                    f"{facts.label}: observed condition probability "
                    f"{probability:.6g} outside certified {facts.condition}"
                )
    root = flat[0]
    if certificate.result is not None and root.strategy != "sample":
        lo, hi = certificate.result
        if certificate.kind == "dist" and isinstance(value, dict):
            total = sum(value.values())
            if abs(total - 1.0) > tolerance:
                violations.append(
                    f"dist result mass {total:.6g} is not 1"
                )
            if value:
                top_count = max(value)
                if certificate.support is not None and not (
                    certificate.support.hi is None
                    or top_count <= certificate.support.hi
                ):
                    violations.append(
                        f"dist support reaches {top_count}, outside certified "
                        f"{certificate.support}"
                    )
            nonzero = 1.0 - value.get(0, 0.0)
            if not (lo - tolerance <= nonzero <= hi + tolerance):
                violations.append(
                    f"dist P(count >= 1) = {nonzero:.6g} outside certified "
                    f"[{lo:.6g}, {hi:.6g}]"
                )
        elif isinstance(value, (int, float)):
            observed_value = float(value)
            if not (lo - tolerance <= observed_value <= hi + tolerance):
                violations.append(
                    f"{certificate.kind} result {observed_value:.6g} outside "
                    f"certified [{lo:.6g}, {hi:.6g}]"
                )
    return violations


__all__ = [
    "CardInterval",
    "EPSILON",
    "GuardFinding",
    "NodeFacts",
    "PlanCertificate",
    "ProbInterval",
    "SKIPPABLE_KINDS",
    "absint_diagnostics",
    "certify_plan",
    "verify_execution",
]
