"""The logical plan IR for algebra expressions and probabilistic queries.

A plan is an immutable tree of dataclass nodes.  Leaves are
:class:`ScanNode` references into the :class:`~repro.storage.database.Database`
catalog; inner nodes are the algebra operators of Section 5 (ancestor /
descendant / single projection, chain selection, cartesian product); an
optional :class:`QueryNode` root turns the instance the plan produces
into a probability (point / exists / chain / prob / count / dist).

Plans come from two places:

* :func:`plan_statement` translates a parsed PXQL statement;
* :class:`PlanBuilder` is the programmatic fluent API::

      plan = (PlanBuilder.scan("bib")
              .project("R.book.author")
              .select("R.book.author", "A1")
              .point("R.book.author", "A1")
              .build())

Every node has a canonical, deterministic :func:`fingerprint` used as
the structural half of cache keys (the other half is the version of each
scanned instance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.errors import PXMLError
from repro.semistructured.paths import PathExpression

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pxql -> engine)
    from repro.pxql import ast


class PlanError(PXMLError):
    """Raised for malformed or untranslatable plans."""


class PlanNode:
    """Base class for logical plan nodes (frozen dataclasses only)."""

    __slots__ = ()

    def children(self) -> tuple["PlanNode", ...]:
        """The node's input plans, left to right."""
        return ()

    def with_children(self, children: tuple["PlanNode", ...]) -> "PlanNode":
        """A copy of this node over different inputs (same arity)."""
        if children:
            raise PlanError(f"{type(self).__name__} takes no inputs")
        return self

    def label(self) -> str:
        """The one-line rendering used by fingerprints and EXPLAIN."""
        raise NotImplementedError


@dataclass(frozen=True)
class ScanNode(PlanNode):
    """A leaf: read a named instance from the catalog."""

    name: str

    def label(self) -> str:
        return f"Scan({self.name})"


@dataclass(frozen=True)
class ProjectNode(PlanNode):
    """Ancestor / descendant / single projection of a path expression."""

    kind: str                    # "ancestor" | "descendant" | "single"
    path: PathExpression
    child: PlanNode

    def __post_init__(self) -> None:
        if self.kind not in ("ancestor", "descendant", "single"):
            raise PlanError(f"unknown projection kind {self.kind!r}")

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: tuple[PlanNode, ...]) -> "ProjectNode":
        (child,) = children
        return ProjectNode(self.kind, self.path, child)

    def label(self) -> str:
        return f"Project[{self.kind}]({self.path})"


#: Comparison operators a probability guard may use.
PROB_GUARD_OPS = (">", ">=", "<", "<=")


@dataclass(frozen=True)
class SelectNode(PlanNode):
    """Chain selection ``p = o`` with optional value / cardinality clause.

    ``prob_op`` / ``prob_bound`` encode an optional *probability guard*
    (``AND PROB > 0.5`` in PXQL): an assertion that the selection's
    condition probability satisfies the comparison.  A violated guard
    raises :class:`~repro.errors.EmptyResultError` at execution time —
    and a statically unsatisfiable one (``PROB > 1.0``) is flagged by
    the plan checker before execution ever starts.
    """

    path: PathExpression
    oid: str
    child: PlanNode
    value: object = None
    card_label: str | None = None
    card_bounds: tuple[int, int] | None = None
    prob_op: str | None = None
    prob_bound: float | None = None

    def __post_init__(self) -> None:
        if self.prob_op is not None and self.prob_op not in PROB_GUARD_OPS:
            raise PlanError(f"unknown probability guard operator {self.prob_op!r}")
        if (self.prob_op is None) != (self.prob_bound is None):
            raise PlanError("probability guard needs both an operator and a bound")

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: tuple[PlanNode, ...]) -> "SelectNode":
        (child,) = children
        return SelectNode(
            self.path, self.oid, child, self.value, self.card_label,
            self.card_bounds, self.prob_op, self.prob_bound,
        )

    def label(self) -> str:
        parts = [f"{self.path} = {self.oid}"]
        if self.value is not None:
            parts.append(f"value = {self.value!r}")
        if self.card_label is not None:
            low, high = self.card_bounds
            parts.append(f"card({self.card_label}) in [{low}, {high}]")
        if self.prob_op is not None:
            parts.append(f"prob {self.prob_op} {self.prob_bound:g}")
        return f"Select[{' and '.join(parts)}]"


@dataclass(frozen=True)
class ProductNode(PlanNode):
    """Cartesian product of two instance-producing plans."""

    left: PlanNode
    right: PlanNode
    new_root: str | None = None

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def with_children(self, children: tuple[PlanNode, ...]) -> "ProductNode":
        left, right = children
        return ProductNode(left, right, self.new_root)

    def label(self) -> str:
        root = f" root={self.new_root}" if self.new_root is not None else ""
        return f"Product[{root.strip() or 'auto-root'}]"


#: Query kinds a :class:`QueryNode` can evaluate.
QUERY_KINDS = ("point", "exists", "chain", "prob", "count", "dist")


@dataclass(frozen=True)
class QueryNode(PlanNode):
    """Turn the child plan's instance into a probability / expectation."""

    kind: str                          # one of QUERY_KINDS
    child: PlanNode
    path: PathExpression | None = None
    oid: str | None = None
    chain: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in QUERY_KINDS:
            raise PlanError(f"unknown query kind {self.kind!r}")

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: tuple[PlanNode, ...]) -> "QueryNode":
        (child,) = children
        return QueryNode(self.kind, child, self.path, self.oid, self.chain)

    def label(self) -> str:
        if self.kind == "chain":
            return f"Query[chain {'.'.join(self.chain)}]"
        if self.kind == "prob":
            return f"Query[prob {self.oid}]"
        if self.kind == "point":
            return f"Query[point {self.path} : {self.oid}]"
        return f"Query[{self.kind} {self.path}]"


# ----------------------------------------------------------------------
# Traversal and fingerprints
# ----------------------------------------------------------------------
def walk(plan: PlanNode) -> Iterator[PlanNode]:
    """Pre-order traversal of a plan tree."""
    yield plan
    for child in plan.children():
        yield from walk(child)


def scan_names(plan: PlanNode) -> tuple[str, ...]:
    """The catalog names the plan reads, sorted and de-duplicated."""
    return tuple(sorted({
        node.name for node in walk(plan) if isinstance(node, ScanNode)
    }))


def fingerprint(plan: PlanNode) -> str:
    """A canonical structural key for a plan (versions live elsewhere).

    Two plans share a fingerprint iff they are the same operator tree
    over the same parameters — the structural half of the cache key.
    """
    parts = [plan.label()]
    children = plan.children()
    if children:
        parts.append("(")
        parts.append(",".join(fingerprint(child) for child in children))
        parts.append(")")
    return "".join(parts)


# ----------------------------------------------------------------------
# Translation from PXQL ASTs
# ----------------------------------------------------------------------
def _as_path(path: PathExpression | str) -> PathExpression:
    return PathExpression.parse(path) if isinstance(path, str) else path


def plan_statement(statement: "ast.Statement") -> PlanNode | None:
    """The logical plan of a plannable PXQL statement.

    Algebra statements (PROJECT / SELECT / PRODUCT) and query statements
    (POINT / EXISTS / CHAIN / PROB / COUNT / DIST) translate; catalog
    and inspection statements return ``None`` (the interpreter runs them
    eagerly as before).
    """
    from repro.pxql import ast

    if isinstance(statement, ast.ProjectStatement):
        return ProjectNode(statement.kind, statement.path, ScanNode(statement.source))
    if isinstance(statement, ast.SelectStatement):
        return SelectNode(
            statement.path, statement.oid, ScanNode(statement.source),
            statement.value, statement.card_label, statement.card_bounds,
            getattr(statement, "prob_op", None),
            getattr(statement, "prob_bound", None),
        )
    if isinstance(statement, ast.ProductStatement):
        return ProductNode(
            ScanNode(statement.left), ScanNode(statement.right),
            statement.new_root,
        )
    if isinstance(statement, ast.PointStatement):
        return QueryNode("point", ScanNode(statement.source),
                         path=statement.path, oid=statement.oid)
    if isinstance(statement, ast.ExistsStatement):
        return QueryNode("exists", ScanNode(statement.source), path=statement.path)
    if isinstance(statement, ast.ChainStatement):
        return QueryNode("chain", ScanNode(statement.source), chain=statement.chain)
    if isinstance(statement, ast.ProbStatement):
        return QueryNode("prob", ScanNode(statement.source), oid=statement.oid)
    if isinstance(statement, ast.CountStatement):
        return QueryNode("count", ScanNode(statement.source), path=statement.path)
    if isinstance(statement, ast.DistStatement):
        return QueryNode("dist", ScanNode(statement.source), path=statement.path)
    return None


# ----------------------------------------------------------------------
# Programmatic builder
# ----------------------------------------------------------------------
class PlanBuilder:
    """Fluent construction of plans, mirroring the algebra's composition."""

    def __init__(self, node: PlanNode) -> None:
        self._node = node

    @classmethod
    def scan(cls, name: str) -> "PlanBuilder":
        """Start from a catalog instance."""
        return cls(ScanNode(name))

    def project(
        self, path: PathExpression | str, kind: str = "ancestor"
    ) -> "PlanBuilder":
        """Apply a projection."""
        return PlanBuilder(ProjectNode(kind, _as_path(path), self._node))

    def select(
        self,
        path: PathExpression | str,
        oid: str,
        value: object = None,
        card_label: str | None = None,
        card_bounds: tuple[int, int] | None = None,
        prob_op: str | None = None,
        prob_bound: float | None = None,
    ) -> "PlanBuilder":
        """Apply a chain selection (optionally probability-guarded)."""
        return PlanBuilder(SelectNode(
            _as_path(path), oid, self._node, value, card_label, card_bounds,
            prob_op, prob_bound,
        ))

    def product(
        self, other: "PlanBuilder | PlanNode | str", new_root: str | None = None
    ) -> "PlanBuilder":
        """Cartesian product with another plan (or catalog name)."""
        if isinstance(other, str):
            right: PlanNode = ScanNode(other)
        elif isinstance(other, PlanBuilder):
            right = other._node
        else:
            right = other
        return PlanBuilder(ProductNode(self._node, right, new_root))

    def point(self, path: PathExpression | str, oid: str) -> "PlanBuilder":
        """Finish with a point query."""
        return PlanBuilder(QueryNode("point", self._node,
                                     path=_as_path(path), oid=oid))

    def exists(self, path: PathExpression | str) -> "PlanBuilder":
        """Finish with an existential query."""
        return PlanBuilder(QueryNode("exists", self._node, path=_as_path(path)))

    def chain(self, chain: tuple[str, ...] | list[str]) -> "PlanBuilder":
        """Finish with an explicit-chain query."""
        return PlanBuilder(QueryNode("chain", self._node, chain=tuple(chain)))

    def prob(self, oid: str) -> "PlanBuilder":
        """Finish with an object-existence query."""
        return PlanBuilder(QueryNode("prob", self._node, oid=oid))

    def count(self, path: PathExpression | str) -> "PlanBuilder":
        """Finish with an expected-match-count query."""
        return PlanBuilder(QueryNode("count", self._node, path=_as_path(path)))

    def build(self) -> PlanNode:
        """The constructed plan."""
        return self._node
