"""The plan pass: abstract interpretation of plans over intervals.

:func:`certify_plan` runs one bottom-up walk over the engine's logical
plan IR with two lattice domains:

* :class:`ProbInterval` — a closed subinterval of ``[0, 1]`` bounding a
  probability;
* :class:`CardInterval` — an integer interval (with ``None`` as +inf)
  bounding an object / match count.

Each plan operator has a transfer function: scans seed the domains from
the catalog (exact object counts) and the strong dataguide's per-path /
per-object existence intervals (:mod:`repro.check.dataguide`); a
projection keeps the matched chains (the bare root when no matched
object is alive); selection multiplies chain-occurrence bounds with
exact VALUE / CARD clause factors and compares probability guards
against the resulting interval; product composes; query nodes map
exists / count / point / dist onto certified output bounds.  Where a
transfer function computes its node's state it also emits the findings
that state decides (``PX201``–``PX244``, and the advisory ``PX26x``
interval verdicts).  The result is a :class:`PlanCertificate` carrying
one :class:`NodeFacts` per plan node (pre-order, mirroring
:func:`repro.engine.plan.walk`), whole-plan conclusions — a numeric
result interval, a bound on the ``DIST`` support, an *emptiness proof*
when the result is a statically known constant — and the findings.

Soundness discipline:

* the guide is **ignored when truncated** — a truncated guide's
  per-object bounds may miss contributions from unexpanded parents;
* every widening is toward ``[0, 1]`` / ``[lo, +inf]``: missing OPFs,
  unknown shapes and non-tree instances lose precision, never soundness;
* a certificate is only marked :attr:`~PlanCertificate.skippable` when
  the plan provably cannot raise (no SELECT whose guard or normalization
  can fail, no PRODUCT whose operands can collide) *and* the certified
  result is one of the engine's constant skip values.

Severity policy: *error* means executing the plan will certainly raise;
*warning* means it executes but its result is a statically known
constant (bare root, probability zero, trivial distribution).

:func:`check_plan` is the checker's view of one walk (its findings) and
:func:`verify_execution` checks an actual execution against the
certificate — the runtime half of the contract: every observed
cardinality and probability must lie inside its predicted interval.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import Any

from repro.check.diagnostics import ERROR, WARNING, Diagnostic
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
from repro.obs.export import NODE_SPAN, node_spans
from repro.obs.tracing import Span
from repro.semistructured.graph import EdgeLabeledGraph
from repro.semistructured.paths import PathExpression
from repro.storage.derived import catalog_generation, fetch, reading_at

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
class PlanCertificate:
    """What the abstract interpreter proved about one prepared plan.

    ``facts`` mirrors :func:`repro.engine.plan.walk` (pre-order, one
    entry per node).  ``result`` bounds the numeric result of a query
    root (for ``dist`` it bounds ``P(count >= 1)``; ``support`` then
    bounds the match counts carrying mass).  ``empty`` asserts the
    result is the kind's constant skip value; ``skippable`` additionally
    asserts executing the plan cannot raise, so the engine may answer
    from the certificate alone.  ``findings`` are the ``PX2xx``
    diagnostics the same walk emitted (no subject; :func:`check_plan`
    adds it).
    """

    facts: tuple[NodeFacts, ...]
    kind: str | None = None
    result: tuple[float, float] | None = None
    support: CardInterval | None = None
    empty: bool = False
    skippable: bool = False
    findings: tuple[Diagnostic, ...] = ()

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
    directly above a scan; its ``graph`` over-approximates the output's
    weak structure.  ``live`` says every object of that graph has
    nonzero existence probability (an exact ancestor projection's
    result), which a guide otherwise has to tell.
    """

    card: CardInterval
    prob: ProbInterval
    exact: bool
    condition: ProbInterval | None = None
    result: tuple[float, float] | None = None
    site: Site = UNKNOWN
    tree: bool = False
    live: bool = False


def _opaque_instance() -> _State:
    return _State(card=CardInterval.top(), prob=ProbInterval.top(), exact=False)


def _never_match_hint(site: Site, path: PathExpression) -> str | None:
    if site.root is not None and path.root != site.root:
        return f"a path starts at the root {site.root!r}, not at {path.root!r}"
    guide = site.guide_for(path)
    if guide is None:
        return None
    length, continuations = guide.probe(path.labels)
    if length == len(path.labels):
        return None
    prefix = ".".join((path.root, *path.labels[:length]))
    if continuations:
        return (
            f"path dies after {prefix!r}; labels that do continue: "
            f"{', '.join(continuations)}"
        )
    return f"path dies after {prefix!r}, which has no outgoing labels"


def _guard_verdict(
    op: str, bound: float, interval: ProbInterval, margin: float
) -> str | None:
    """``"always"`` / ``"never"`` when ``PROB op bound`` is decided for
    every probability in ``interval``, else ``None``.

    Satisfied region: "> b" = (b, 1], ">= b" = [b, 1], "< b" = [0, b),
    "<= b" = [0, b].  "always" requires the whole interval inside the
    region, "never" an empty intersection — both with ``margin``, so
    float noise can only make the verdict more conservative.
    """
    lo, hi = interval.lo, interval.hi
    if op == ">":
        always, never = lo > bound + margin, hi <= bound - margin
    elif op == ">=":
        always, never = lo >= bound + margin, hi < bound - margin
    elif op == "<":
        always, never = hi < bound - margin, lo >= bound + margin
    else:  # "<="
        always, never = hi <= bound - margin, lo > bound + margin
    return "always" if always else "never" if never else None


class _AbstractInterpreter:
    """Bottom-up interval propagation over one plan tree.

    Each transfer function computes its node's state and emits the
    findings that state decides: ``findings`` in walk order, the
    advisory interval verdicts (``PX26x``) apart.
    """

    def __init__(self, database: Any) -> None:
        self.database = database
        self.states: dict[int, _State] = {}
        self.findings: list[Diagnostic] = []
        self.advisories: list[Diagnostic] = []
        self.can_raise = False

    def _emit(
        self,
        code: str,
        severity: str,
        message: str,
        oid: str | None = None,
        path: PathExpression | None = None,
        hint: str | None = None,
        into: list[Diagnostic] | None = None,
    ) -> None:
        (self.findings if into is None else into).append(Diagnostic(
            code=code, severity=severity, message=message, oid=oid,
            path=str(path) if path is not None else None, hint=hint,
        ))

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
            return self._project(node, self.state_of(node.child))
        if isinstance(node, SelectNode):
            return self._select(node, self.state_of(node.child))
        if isinstance(node, ProductNode):
            return self._product(
                node, self.state_of(node.left), self.state_of(node.right)
            )
        if isinstance(node, QueryNode):
            return self._query(node, self.state_of(node.child))
        for unknown_child in node.children():
            self.state_of(unknown_child)
        self.can_raise = True
        return _opaque_instance()

    # ------------------------------------------------------------------
    def _scan(self, node: ScanNode) -> _State:
        try:
            pi = fetch(self.database, node.name)
        except Exception:
            self._emit(
                "PX201", ERROR,
                f"unknown instance {node.name!r} in catalog",
                hint="LIST shows the registered names",
            )
            self.can_raise = True
            return _opaque_instance()
        return _State(
            card=CardInterval.exactly(len(pi)),
            prob=ONE,
            exact=True,
            site=scan_site(node.name, pi),
            tree=pi.weak.is_tree(),
        )

    # ------------------------------------------------------------------
    def _project(self, node: ProjectNode, child: _State) -> _State:
        site, path = child.site, node.path
        alive = site.alive(path)
        if alive is None or (alive and node.kind != "ancestor"):
            # An unknown shape, or a descendant / single projection that
            # re-roots and re-labels: only the size bound survives (the
            # result always has a root).
            return _State(
                card=CardInterval(1, child.card.hi),
                prob=ProbInterval.top(),
                exact=False,
            )
        if not alive:
            # No matched object is alive: the result is the bare root,
            # deterministically.  The match is only asked for the wording.
            match = site.match(path)
            assert match is not None
            reason = (
                "matches no object of the weak structure" if match.is_empty
                else "matches only objects with zero existence probability"
            )
            self._emit(
                "PX210", WARNING,
                f"projection path {path} {reason}; the result is always "
                f"the bare root",
                path=path, hint=_never_match_hint(site, path),
            )
            return _State(
                card=CardInterval.exactly(1), prob=ONE, exact=True,
                site=site.projected(), tree=True, live=True,
            )
        match = site.match(path)
        assert match is not None
        result = site.projected(match)
        assert result.graph is not None
        kept = len(result.graph)
        # The result is exactly the matched chains only on a tree, for
        # a path from the instance root (one rooted below it keeps the
        # bare root) whose every matched object is alive (execution
        # prunes the zero-probability ones).  Otherwise the chains bound
        # it from above.
        guide = site.guide_for(path)
        every_alive = alive == match.matched if guide is not None else child.live
        exact_structure = child.tree and path.root == site.root and every_alive
        card = (
            CardInterval.exactly(kept) if exact_structure
            else CardInterval(1, kept)
        )
        prob = ProbInterval.top()
        if guide is not None:
            lo, hi = guide.interval(path.labels)
            prob = ProbInterval(lo, min(1.0, hi))
        return _State(
            card=card, prob=prob, exact=exact_structure and child.exact,
            site=result, tree=child.tree, live=exact_structure,
        )

    # ------------------------------------------------------------------
    def _select(self, node: SelectNode, child: _State) -> _State:
        self.can_raise = True          # zero condition / failed guard raises
        before = len(self.findings)
        op, bound = node.prob_op, node.prob_bound
        if op is not None and bound is not None:
            # A guard the range [0, 1] alone decides is certain.
            constant = _guard_verdict(op, bound, ProbInterval.top(), 0.0)
            if constant == "never":
                self._emit(
                    "PX225", ERROR,
                    f"probability guard PROB {op} {bound:g} is unsatisfiable: "
                    f"condition probabilities lie in [0, 1]",
                    oid=node.oid, path=node.path,
                    hint="no world satisfies this; executing it raises "
                         "EmptyResultError",
                )
            elif constant == "always":
                self._emit(
                    "PX226", WARNING,
                    f"probability guard PROB {op} {bound:g} is always true",
                    oid=node.oid, path=node.path,
                    hint="drop the redundant guard",
                )
        condition = self._condition_interval(node, child.site)
        if len(self.findings) == before:
            # Nothing certain about this selection: the interval verdicts.
            self._judge_interval(node, condition)
        # Selection conditions the distributions in place: the weak
        # structure (hence the object count) is exactly the child's.
        # One that certainly raises (PX220, whose branch returns ZERO
        # itself) leaves its input's site to the nodes above, which
        # never run.
        failed = condition is ZERO
        return _State(
            card=child.card,
            prob=condition,
            exact=child.exact and condition.is_point,
            condition=condition,
            site=child.site if failed else Site(child.site.root, child.site.graph),
            tree=child.tree,
        )

    def _judge_interval(self, node: SelectNode, condition: ProbInterval) -> None:
        op, bound = node.prob_op, node.prob_bound
        if op is not None and bound is not None:
            verdict = _guard_verdict(op, bound, condition, EPSILON)
            certified = f"the condition probability is certified to lie in {condition}"
            if verdict == "always":
                self._emit(
                    "PX261", WARNING,
                    f"probability guard PROB {op} {bound:g} is always true: "
                    f"{certified}",
                    oid=node.oid, path=node.path,
                    hint="drop the redundant guard", into=self.advisories,
                )
            elif verdict == "never":
                self._emit(
                    "PX263", WARNING,
                    f"probability guard PROB {op} {bound:g} is unsatisfiable: "
                    f"{certified}",
                    oid=node.oid, path=node.path,
                    hint="executing this raises EmptyResultError",
                    into=self.advisories,
                )
        if condition.hi <= EPSILON:
            self._emit(
                "PX262", WARNING,
                f"selection condition of {node.label()} has probability zero "
                f"by interval analysis",
                oid=node.oid, path=node.path,
                hint="executing this raises EmptyResultError",
                into=self.advisories,
            )

    def _condition_interval(self, node: SelectNode, site: Site) -> ProbInterval:
        alive = site.alive(node.path)
        if alive is not None and node.oid not in alive:
            # A failing condition: the match is only asked for the wording.
            match = site.match(node.path)
            assert match is not None
            if node.oid not in match.matched:
                self._emit(
                    "PX220", ERROR,
                    f"selection condition {node.path} = {node.oid} has "
                    f"probability zero: {node.oid!r} can never satisfy the path",
                    oid=node.oid, path=node.path,
                    hint=_never_match_hint(site, node.path)
                    or "executing this raises EmptyResultError",
                )
            else:
                self._emit(
                    "PX220", ERROR,
                    f"selection condition {node.path} = {node.oid} has "
                    f"probability zero: some chain link has zero inclusion "
                    f"probability",
                    oid=node.oid, path=node.path,
                    hint="executing this raises EmptyResultError",
                )
            return ZERO
        if site.pi is not None:
            if node.value is not None:
                self._check_value_clause(node, site.pi)
            if node.card_label is not None:
                self._check_card_clause(node, site.pi)
        base = ProbInterval.top()
        guide = site.guide_for(node.path)
        if guide is not None:
            entry = guide.entry(node.path.labels)
            if entry is not None:
                bounds = entry.object_bounds.get(node.oid)
                if bounds is not None:
                    base = ProbInterval(bounds[0], min(1.0, bounds[1]))
        return base.times(self._clause_factor(node, site.pi))

    def _check_value_clause(self, node: SelectNode, pi: ProbabilisticInstance) -> None:
        oid = node.oid
        if not pi.weak.is_leaf(oid):
            self._emit(
                "PX222", ERROR,
                f"VALUE clause on non-leaf object {oid!r}: it carries no "
                f"value distribution",
                oid=oid, path=node.path,
                hint="select on a leaf object or drop the VALUE clause",
            )
            return
        vpf = pi.effective_vpf(oid)
        if vpf is None:
            self._emit(
                "PX222", ERROR,
                f"VALUE clause on {oid!r}, which has no value distribution",
                oid=oid, path=node.path,
                hint="assign a VPF or a default value first",
            )
            return
        leaf_type = pi.weak.tau(oid)
        if leaf_type is not None and node.value not in leaf_type:
            self._emit(
                "PX222", ERROR,
                f"VALUE = {node.value!r} lies outside dom({leaf_type.name}) "
                f"of {oid!r}",
                oid=oid, path=node.path,
                hint=f"the domain is {sorted(map(repr, leaf_type.domain))}",
            )
            return
        if vpf.prob(node.value) == 0.0:
            self._emit(
                "PX222", ERROR,
                f"VALUE = {node.value!r} has zero probability in the VPF of "
                f"{oid!r}",
                oid=oid, path=node.path,
                hint="executing this raises EmptyResultError",
            )

    def _check_card_clause(self, node: SelectNode, pi: ProbabilisticInstance) -> None:
        assert node.card_label is not None and node.card_bounds is not None
        low, high = node.card_bounds
        label = node.card_label
        if low > high:
            self._emit(
                "PX223", ERROR,
                f"CARD({label}) IN [{low}, {high}] is an empty interval",
                oid=node.oid, path=node.path,
                hint="swap the bounds",
            )
            return
        pool = pi.weak.lch(node.oid, label)
        card = pi.weak.card(node.oid, label)
        feasible_low = card.min
        feasible_high = min(card.max, len(pool))
        if feasible_low > feasible_high:
            return    # the model itself is broken; the model pass reports it
        if high < feasible_low or low > feasible_high:
            self._emit(
                "PX223", ERROR,
                f"CARD({label}) IN [{low}, {high}] contradicts the feasible "
                f"child counts [{feasible_low}, {feasible_high}] of "
                f"{node.oid!r}",
                oid=node.oid, path=node.path,
                hint="executing this raises EmptyResultError",
            )
            return
        if low <= feasible_low and high >= feasible_high:
            self._emit(
                "PX224", WARNING,
                f"CARD({label}) IN [{low}, {high}] covers every feasible child "
                f"count [{feasible_low}, {feasible_high}] of {node.oid!r}: the "
                f"clause is always true",
                oid=node.oid, path=node.path,
                hint="drop the redundant clause",
            )

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

    # ------------------------------------------------------------------
    def _product(self, node: ProductNode, left: _State, right: _State) -> _State:
        self.can_raise = True          # operand collision raises AlgebraError
        state = _State(
            card=left.card.plus(right.card, shift=-1),
            prob=left.prob.times(right.prob),
            exact=False,
        )
        if left.site.graph is None or right.site.graph is None:
            return state
        left_keep = left.site.graph.vertices - {left.site.root}
        right_keep = right.site.graph.vertices - {right.site.root}
        overlap = left_keep & right_keep
        if overlap:
            self._emit(
                "PX230", ERROR,
                f"product operands share non-root object ids: "
                f"{sorted(overlap)[:5]}{'...' if len(overlap) > 5 else ''}",
                hint="rename one operand's objects first "
                     "(executing this raises AlgebraError)",
            )
            return state
        new_root = node.new_root
        if new_root is None:
            new_root = f"{left.site.root}x{right.site.root}"
        if new_root in left_keep or new_root in right_keep:
            self._emit(
                "PX231", ERROR,
                f"product root id {new_root!r} collides with an existing "
                f"object",
                oid=new_root,
                hint="pick a fresh ROOT id",
            )
            return state
        graph = EdgeLabeledGraph()
        graph.add_vertex(new_root)
        for side in (left.site, right.site):
            assert side.graph is not None
            for src, dst, label in side.graph.edges():
                source = new_root if src == side.root else src
                graph.add_edge(source, dst, label)
        state.site = Site(root=new_root, graph=graph)
        return state

    # ------------------------------------------------------------------
    def _query(self, node: QueryNode, child: _State) -> _State:
        kind, oid, site = node.kind, node.oid, child.site
        if kind == "chain":
            return self._chain_query(node.chain, site)
        if kind == "prob":
            return self._object_query(oid, site)
        path = node.path
        assert path is not None
        # A path starts at the instance root: one that names another
        # object first matches nothing, whatever lies below that object.
        below_root = site.root is not None and path.root != site.root
        alive = frozenset() if below_root else site.alive(path)
        if alive is None:
            hi = child.card.hi
            return _State(
                card=CardInterval(0, hi),
                prob=ProbInterval.top(),
                exact=False,
                result=(0.0, math.inf) if kind == "count" else (0.0, 1.0),
            )
        if not alive:
            constant = "the empty distribution {0: 1}" if kind == "dist" else "0"
            self._emit(
                "PX240", WARNING,
                f"{kind.upper()} path {path} can match no object; "
                f"the result is always {constant}",
                path=path, hint=_never_match_hint(site, path),
            )
        elif kind == "point" and oid is not None and oid not in alive:
            self._emit(
                "PX241", WARNING,
                f"POINT target {oid!r} can never satisfy {path}; "
                f"the probability is always 0",
                oid=oid, path=path,
            )
        guide = site.guide_for(path)
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
            return _State(
                card=CardInterval.exactly(0), prob=ZERO, exact=True,
                result=(0.0, 0.0),
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
        # "exists", and "dist" whose P(count >= 1) is the exists
        # interval; the match count itself can never exceed the alive set.
        result = (entry.lower, entry.upper) if entry is not None else (0.0, 1.0)
        return _State(
            card=CardInterval.at_most(len(alive)),
            prob=ProbInterval(result[0], min(1.0, result[1])),
            exact=False,
            result=result,
        )

    def _chain_query(
        self, chain: tuple[str, ...] | None, site: Site
    ) -> _State:
        if chain and site.graph is not None:
            if site.root is not None and chain[0] != site.root:
                self._emit(
                    "PX242", ERROR,
                    f"CHAIN must start at the root {site.root!r}, got "
                    f"{chain[0]!r}",
                    oid=chain[0],
                    hint="executing this raises QueryError",
                )
            else:
                for parent, child in zip(chain, chain[1:]):
                    if parent not in site.graph or \
                            child not in site.graph.children(parent):
                        self._emit(
                            "PX243", WARNING,
                            f"chain link {parent!r} -> {child!r} is not "
                            f"potential; the probability is always 0",
                            oid=child,
                        )
                        break
        pi = site.pi
        if not chain or pi is None or site.root != chain[0]:
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

    def _object_query(self, oid: str | None, site: Site) -> _State:
        if oid is not None and site.graph is not None and oid not in site.graph:
            self._emit(
                "PX244", ERROR,
                f"PROB of unknown object {oid!r}",
                oid=oid,
                hint="SHOW the instance to list its objects",
            )
        guide = site.guide
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
    generation: int | None = None,
) -> PlanCertificate:
    """Abstractly interpret a (prepared) plan into a certificate.

    ``generation`` is the catalog generation the calling statement
    already read (every scan's token is taken under it); omitted, it is
    read here, once.
    """
    if generation is None:
        generation = catalog_generation(database)
    interpreter = _AbstractInterpreter(database)
    with reading_at(database, generation):
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
    # The advisory verdicts: the constant result first, then the guard
    # verdicts, then the zero conditions, each in walk order.
    advisories = sorted(interpreter.advisories, key=lambda d: d.code == "PX262")
    if empty and kind is not None:
        constant = "the empty distribution {0: 1}" if kind == "dist" else "0"
        advisories.insert(0, Diagnostic(
            code="PX260", severity=WARNING,
            message=(
                f"{kind.upper()} result is provably constant: interval "
                f"analysis certifies the answer is always {constant}"
            ),
            hint="the engine short-circuits this plan (check.absint_skips)"
            if skippable else None,
        ))
    return PlanCertificate(
        facts=facts,
        kind=kind,
        result=result,
        support=support,
        empty=empty,
        skippable=skippable,
        findings=(*interpreter.findings, *advisories),
    )


def check_plan(
    plan: PlanNode,
    database: Any,
    subject: str | None = None,
    certified: Callable[[PlanNode, int, PlanCertificate], None] | None = None,
) -> list[Diagnostic]:
    """The plan pass: the findings of one :func:`certify_plan` walk.

    The advisory ``PX26x`` verdicts are dropped when an error finding
    is present: an unknown scan or a certain runtime error makes every
    interval vacuous.  Otherwise ``certified`` is handed the plan, the
    generation it was read under and its certificate
    (:meth:`repro.engine.Engine.adopt_certificate`): the plan checked
    is the plan the engine runs.
    """
    generation = catalog_generation(database)
    certificate = certify_plan(plan, database, generation)
    diagnostics = [replace(d, subject=subject) for d in certificate.findings]
    if any(d.severity == ERROR for d in diagnostics):
        diagnostics = [d for d in diagnostics if not d.code.startswith("PX26")]
    elif certified is not None:
        certified(plan, generation, certificate)
    return diagnostics


def verify_execution(
    certificate: PlanCertificate,
    value: object,
    span: Span,
    tolerance: float = 1e-6,
) -> list[str]:
    """Check an executed plan's observations against its certificate.

    ``span`` is the execution's root plan-node span
    (:attr:`repro.engine.executor.ExecutionResult.span`); its node spans
    (:func:`repro.obs.export.node_spans`) carry what each node observed.
    The engine runs this after every certified execution.  Returns a
    list of violation messages — empty when every observed cardinality,
    condition probability and result lies inside its predicted
    interval.  When the executed shape diverged from the certified plan
    the check is skipped rather than guessed at.
    """
    flat = node_spans(span)
    if len(flat) != len(certificate.facts):
        return []
    violations: list[str] = []
    for facts, observed in zip(certificate.facts, flat):
        if observed.name != NODE_SPAN + facts.label:
            return []      # shapes diverged: nothing comparable
        objects = observed.attributes.get("objects")
        if (
            facts.kind == "instance"
            and isinstance(objects, int)
            and not facts.card.contains(objects)
        ):
            violations.append(
                f"{facts.label}: observed {objects} objects outside "
                f"certified {facts.card}"
            )
        if facts.condition is not None:
            probability = observed.attributes.get("condition_probability")
            if isinstance(probability, (int, float)) and not facts.condition.contains(
                probability, tolerance
            ):
                violations.append(
                    f"{facts.label}: observed condition probability "
                    f"{probability:.6g} outside certified {facts.condition}"
                )
    if (
        certificate.result is not None
        and span.attributes.get("strategy") != "sample"
    ):
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
    "NodeFacts",
    "PlanCertificate",
    "ProbInterval",
    "SKIPPABLE_KINDS",
    "certify_plan",
    "check_plan",
    "verify_execution",
]
