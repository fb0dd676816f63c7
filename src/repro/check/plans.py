"""The plan pass: a static typechecker over the logical plan IR (``PX2xx``).

:func:`check_plan` walks an :mod:`repro.engine.plan` tree bottom-up,
propagating an abstract *shape* (root + weak-structure graph, exact at
scans, over-approximated above operators) and consulting the dataguide
(:mod:`repro.check.dataguide`) for probability-aware reachability.  It
flags:

* scans of unknown catalog names (``PX201``),
* projections of paths that exist in no compatible world (``PX210``),
* selections whose condition provably has probability zero — which the
  executor would surface as a mid-execution
  :class:`~repro.errors.EmptyResultError` (``PX220``–``PX223``),
* tautological cardinality clauses (``PX224``),
* unsatisfiable or trivial probability guards, e.g. ``PROB > 1.0``
  (``PX225``/``PX226``),
* products of incompatible instances (``PX230``/``PX231``),
* queries that are statically constant (``PX240``–``PX244``),
* and, when the optimizer is consulted, a machine-checked soundness
  justification per applied rewrite (``PX250``/``PX251``, via
  :mod:`repro.check.rewrites`).

Severity policy: *error* means executing the plan will certainly raise;
*warning* means it executes but its result is a statically known
constant (bare root, probability zero, trivial distribution).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.check.dataguide import DataGuideCache
from repro.check.diagnostics import ERROR, WARNING, Diagnostic
from repro.check.locate import UNKNOWN, Site, scan_site
from repro.check.rewrites import rewrite_diagnostics
from repro.core.instance import ProbabilisticInstance
from repro.engine.plan import (
    PlanNode,
    ProductNode,
    ProjectNode,
    QueryNode,
    ScanNode,
    SelectNode,
)
from repro.semistructured.graph import EdgeLabeledGraph
from repro.semistructured.paths import PathExpression
from repro.storage.derived import catalog_generation

if TYPE_CHECKING:  # pragma: no cover - the interval pass is imported lazily
    from repro.check.absint import PlanCertificate


def _never_match_hint(site: Site, path: PathExpression) -> str | None:
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


class PlanChecker:
    """Checks logical plans against a database catalog."""

    def __init__(
        self,
        database,
        guides: DataGuideCache | None = None,
        subject: str | None = None,
    ) -> None:
        self.database = database
        self.guides = (
            guides if guides is not None else DataGuideCache.of(database)
        )
        #: Read once (the value the running statement pinned, when it
        #: did): every guide this pass looks up is keyed under it.
        self.generation = catalog_generation(database)
        self.subject = subject
        self.diagnostics: list[Diagnostic] = []

    # ------------------------------------------------------------------
    def _emit(
        self,
        code: str,
        severity: str,
        message: str,
        oid: str | None = None,
        path: PathExpression | None = None,
        hint: str | None = None,
    ) -> None:
        self.diagnostics.append(Diagnostic(
            code=code, severity=severity, message=message,
            subject=self.subject, oid=oid,
            path=str(path) if path is not None else None, hint=hint,
        ))

    # ------------------------------------------------------------------
    def check(self, plan: PlanNode) -> list[Diagnostic]:
        """Run the pass; returns (and stores) the findings."""
        # The root's own shape is nobody's input: checked, not built.
        self._shape_of(plan, used=False)
        return self.diagnostics

    def _shape_of(self, node: PlanNode, used: bool = True) -> Site:
        if isinstance(node, ScanNode):
            return self._check_scan(node)
        if isinstance(node, ProjectNode):
            return self._check_project(node, self._shape_of(node.child), used)
        if isinstance(node, SelectNode):
            return self._check_select(node, self._shape_of(node.child))
        if isinstance(node, ProductNode):
            return self._check_product(
                node, self._shape_of(node.left), self._shape_of(node.right)
            )
        if isinstance(node, QueryNode):
            self._check_query(node, self._shape_of(node.child))
            return UNKNOWN
        return UNKNOWN

    # ------------------------------------------------------------------
    def _check_scan(self, node: ScanNode) -> Site:
        try:
            pi = self.database.get(node.name)
        except Exception:
            self._emit(
                "PX201", ERROR,
                f"unknown instance {node.name!r} in catalog",
                hint="LIST shows the registered names",
            )
            return UNKNOWN
        return scan_site(
            self.database, node.name, pi, self.guides, self.generation
        )

    # ------------------------------------------------------------------
    def _check_project(
        self, node: ProjectNode, shape: Site, used: bool
    ) -> Site:
        if not shape.known:
            return UNKNOWN
        if not shape.alive(node.path):
            # A failing path: the match is only asked for the wording.
            match = shape.match(node.path)
            assert match is not None
            reason = (
                "matches no object of the weak structure" if match.is_empty
                else "matches only objects with zero existence probability"
            )
            self._emit(
                "PX210", WARNING,
                f"projection path {node.path} {reason}; the result is always "
                f"the bare root",
                path=node.path, hint=_never_match_hint(shape, node.path),
            )
            return shape.projected()
        if node.kind != "ancestor" or not used:
            # Descendant / single projections re-root and re-label; the
            # structural over-approximation stops here.  Nor is a shape
            # built that no operator above will locate a path on.
            return UNKNOWN
        return shape.projected(shape.match(node.path))

    # ------------------------------------------------------------------
    def _check_select(self, node: SelectNode, shape: Site) -> Site:
        self._check_prob_guard(node)
        if not shape.known:
            return UNKNOWN
        alive = shape.alive(node.path)
        assert alive is not None
        if node.oid not in alive:
            # A failing condition: the match is only asked for the wording.
            match = shape.match(node.path)
            assert match is not None
            if node.oid not in match.matched:
                self._emit(
                    "PX220", ERROR,
                    f"selection condition {node.path} = {node.oid} has "
                    f"probability zero: {node.oid!r} can never satisfy the path",
                    oid=node.oid, path=node.path,
                    hint=_never_match_hint(shape, node.path)
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
            return shape
        if node.value is not None and shape.pi is not None:
            self._check_value_clause(node, shape.pi)
        if node.card_label is not None and shape.pi is not None:
            self._check_card_clause(node, shape.pi)
        return Site(root=shape.root, graph=shape.graph)

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

    def _check_prob_guard(self, node: SelectNode) -> None:
        if node.prob_op is None or node.prob_bound is None:
            return
        op, bound = node.prob_op, node.prob_bound
        unsatisfiable = (
            (op == ">" and bound >= 1.0)
            or (op == ">=" and bound > 1.0)
            or (op == "<" and bound <= 0.0)
            or (op == "<=" and bound < 0.0)
        )
        trivial = (
            (op == ">" and bound < 0.0)
            or (op == ">=" and bound <= 0.0)
            or (op == "<" and bound > 1.0)
            or (op == "<=" and bound >= 1.0)
        )
        if unsatisfiable:
            self._emit(
                "PX225", ERROR,
                f"probability guard PROB {op} {bound:g} is unsatisfiable: "
                f"condition probabilities lie in [0, 1]",
                oid=node.oid, path=node.path,
                hint="no world satisfies this; executing it raises "
                     "EmptyResultError",
            )
        elif trivial:
            self._emit(
                "PX226", WARNING,
                f"probability guard PROB {op} {bound:g} is always true",
                oid=node.oid, path=node.path,
                hint="drop the redundant guard",
            )

    # ------------------------------------------------------------------
    def _check_product(
        self, node: ProductNode, left: Site, right: Site
    ) -> Site:
        if not (left.known and right.known):
            return UNKNOWN
        assert left.graph is not None and right.graph is not None
        left_keep = left.graph.vertices - {left.root}
        right_keep = right.graph.vertices - {right.root}
        overlap = left_keep & right_keep
        if overlap:
            self._emit(
                "PX230", ERROR,
                f"product operands share non-root object ids: "
                f"{sorted(overlap)[:5]}{'...' if len(overlap) > 5 else ''}",
                hint="rename one operand's objects first "
                     "(executing this raises AlgebraError)",
            )
            return UNKNOWN
        new_root = node.new_root
        if new_root is None:
            new_root = f"{left.root}x{right.root}"
        if new_root in left_keep or new_root in right_keep:
            self._emit(
                "PX231", ERROR,
                f"product root id {new_root!r} collides with an existing "
                f"object",
                oid=new_root,
                hint="pick a fresh ROOT id",
            )
            return UNKNOWN
        graph = EdgeLabeledGraph()
        graph.add_vertex(new_root)
        for side in (left, right):
            assert side.graph is not None
            for src, dst, label in side.graph.edges():
                source = new_root if src == side.root else src
                graph.add_edge(source, dst, label)
        return Site(root=new_root, graph=graph)

    # ------------------------------------------------------------------
    def _check_query(self, node: QueryNode, shape: Site) -> None:
        if not shape.known:
            return
        if node.kind == "chain":
            self._check_chain(node, shape)
            return
        if node.kind == "prob":
            assert node.oid is not None
            assert shape.graph is not None
            if node.oid not in shape.graph:
                self._emit(
                    "PX244", ERROR,
                    f"PROB of unknown object {node.oid!r}",
                    oid=node.oid,
                    hint="SHOW the instance to list its objects",
                )
            return
        assert node.path is not None
        alive = shape.alive(node.path)
        assert alive is not None
        if not alive:
            constant = "the empty distribution {0: 1}" if node.kind == "dist" else "0"
            self._emit(
                "PX240", WARNING,
                f"{node.kind.upper()} path {node.path} can match no object; "
                f"the result is always {constant}",
                path=node.path, hint=_never_match_hint(shape, node.path),
            )
            return
        if node.kind == "point" and node.oid is not None and node.oid not in alive:
            self._emit(
                "PX241", WARNING,
                f"POINT target {node.oid!r} can never satisfy {node.path}; "
                f"the probability is always 0",
                oid=node.oid, path=node.path,
            )

    def _check_chain(self, node: QueryNode, shape: Site) -> None:
        assert node.chain is not None and shape.graph is not None
        chain = node.chain
        if not chain:
            return
        if shape.root is not None and chain[0] != shape.root:
            self._emit(
                "PX242", ERROR,
                f"CHAIN must start at the root {shape.root!r}, got "
                f"{chain[0]!r}",
                oid=chain[0],
                hint="executing this raises QueryError",
            )
            return
        for parent, child in zip(chain, chain[1:]):
            if parent not in shape.graph or child not in shape.graph.children(parent):
                self._emit(
                    "PX243", WARNING,
                    f"chain link {parent!r} -> {child!r} is not potential; "
                    f"the probability is always 0",
                    oid=child,
                )
                return


def check_plan(
    plan: PlanNode,
    database,
    guides: DataGuideCache | None = None,
    subject: str | None = None,
    rewrites: bool = False,
    certified: Callable[[PlanNode, int, PlanCertificate], None] | None = None,
) -> list[Diagnostic]:
    """Run the plan pass over one logical plan.

    With ``rewrites=True`` the optimizer is additionally run with a
    trace, and every applied rewrite is re-verified and annotated
    (``PX250``/``PX251``).  ``certified`` is handed the plan, the
    generation it was read under and the interval certificate computed
    for it (:meth:`repro.engine.Engine.adopt_certificate`).
    """
    checker = PlanChecker(database, guides, subject)
    diagnostics = list(checker.check(plan))
    if not any(d.severity == ERROR for d in diagnostics):
        # Interval pass: only meaningful on plans the base checker found
        # executable (an unknown scan or a certain runtime error makes
        # every interval vacuous).  Selections already flagged by a
        # ``PX22x`` finding keep that finding as the single source of
        # truth instead of gaining an interval-flavoured duplicate.
        try:
            from repro.check.absint import absint_diagnostics, certify_plan

            certificate = certify_plan(
                plan, database, checker.guides, checker.generation
            )
            if certified is not None:
                certified(plan, checker.generation, certificate)
            flagged: set[tuple[str, str]] = set()
            for d in diagnostics:
                if d.code.startswith("PX22") and d.path is not None \
                        and d.oid is not None:
                    flagged.add((d.path, d.oid))
            diagnostics.extend(
                absint_diagnostics(plan, certificate, subject, flagged)
            )
        except Exception:
            pass    # the interval pass is advisory; never block checking
    if rewrites:
        from repro.engine.cost import CostModel
        from repro.engine.rewrite import optimize

        trace: list[tuple[str, PlanNode, PlanNode]] = []
        try:
            optimize(
                plan, CostModel(database).at(checker.generation), trace=trace
            )
        except Exception:
            trace = []    # unknown scans etc.; the scan check already fired
        diagnostics.extend(rewrite_diagnostics(trace, subject))
    return diagnostics
