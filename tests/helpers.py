"""Random-instance generators and the direct-operator reference
evaluator shared by the test suite."""

from __future__ import annotations

import random

import pytest

from repro.algebra.product import cartesian_product
from repro.algebra.projection_more import (
    descendant_projection_local,
    single_projection_local,
)
from repro.algebra.projection_prob import ancestor_projection_local
from repro.algebra.selection import (
    ObjectCardinalityCondition,
    ObjectCondition,
    ObjectValueCondition,
    select_local,
)
from repro.core.cardinality import CardinalityInterval
from repro.core.distributions import TabularOPF, TabularVPF
from repro.core.instance import ProbabilisticInstance
from repro.core.interpretation import LocalInterpretation
from repro.core.weak_instance import WeakInstance
from repro.engine.executor import check_probability_guard
from repro.pxql import ast, parse
from repro.queries.aggregates import match_count_distribution
from repro.queries.engine import QueryEngine
from repro.semistructured.types import LeafType


def random_tree_instance(
    rng: random.Random,
    depth: int = 3,
    max_children: int = 3,
    max_labels: int = 2,
    allow_empty_choice: bool = True,
) -> ProbabilisticInstance:
    """A random tree-structured probabilistic instance.

    Small enough to enumerate (used to compare efficient algorithms with
    the global reference semantics).  Every non-leaf gets a random tabular
    OPF over a random subset of its potential child sets; leaves get
    random VPFs over a two-value domain.
    """
    weak = WeakInstance("r")
    interp = LocalInterpretation()
    leaf_type = LeafType("t", ("x", "y"))
    counter = 0

    def grow(oid: str, level: int) -> None:
        nonlocal counter
        if level == depth:
            weak.set_type(oid, leaf_type)
            p = rng.uniform(0.1, 0.9)
            interp.set_vpf(oid, TabularVPF({"x": p, "y": 1.0 - p}))
            return
        n_children = rng.randint(1, max_children)
        children = []
        for _ in range(n_children):
            counter += 1
            children.append(f"n{counter}")
        # Split the children among one or two labels.
        n_labels = rng.randint(1, min(max_labels, n_children))
        groups: dict[str, list[str]] = {}
        for index, child in enumerate(children):
            label = f"L{index % n_labels}"
            groups.setdefault(label, []).append(child)
        for label, group in groups.items():
            weak.set_lch(oid, label, group)
        # Random OPF over a random nonempty subset of PC(o).
        child_sets = list(weak.potential_child_sets(oid))
        if not allow_empty_choice:
            child_sets = [c for c in child_sets if c]
        rng.shuffle(child_sets)
        support = child_sets[: rng.randint(1, len(child_sets))]
        weights = [rng.uniform(0.05, 1.0) for _ in support]
        total = sum(weights)
        interp.set_opf(
            oid, TabularOPF({c: w / total for c, w in zip(support, weights)})
        )
        for child in children:
            grow(child, level + 1)

    grow("r", 0)
    pi = ProbabilisticInstance(weak, interp)
    pi.validate()
    return pi


def random_dag_instance(rng: random.Random, width: int = 3) -> ProbabilisticInstance:
    """A small random *DAG* probabilistic instance (3 layers, shared
    children) for exercising the enumeration and BN engines beyond trees."""
    weak = WeakInstance("r")
    interp = LocalInterpretation()
    leaf_type = LeafType("t", ("x", "y"))

    mids = [f"m{i}" for i in range(width)]
    leaves = [f"z{i}" for i in range(width)]
    weak.set_lch("r", "a", mids)
    for index, mid in enumerate(mids):
        # Each middle node may share leaves with its neighbour.
        pool = sorted({leaves[index], leaves[(index + 1) % width]})
        weak.set_lch(mid, "b", pool)
        child_sets = list(weak.potential_child_sets(mid))
        weights = [rng.uniform(0.05, 1.0) for _ in child_sets]
        total = sum(weights)
        interp.set_opf(
            mid, TabularOPF({c: w / total for c, w in zip(child_sets, weights)})
        )
    child_sets = list(weak.potential_child_sets("r"))
    weights = [rng.uniform(0.05, 1.0) for _ in child_sets]
    total = sum(weights)
    interp.set_opf(
        "r", TabularOPF({c: w / total for c, w in zip(child_sets, weights)})
    )
    for leaf in leaves:
        weak.set_type(leaf, leaf_type)
        p = rng.uniform(0.1, 0.9)
        interp.set_vpf(leaf, TabularVPF({"x": p, "y": 1.0 - p}))
    pi = ProbabilisticInstance(weak, interp)
    pi.validate()
    return pi


# ----------------------------------------------------------------------
# The reference evaluator the engine parity suites compare against
# ----------------------------------------------------------------------
def evaluate_directly(database, text: str):
    """One PXQL statement answered by a direct call to the operator it
    names — ``repro.algebra`` / ``repro.queries``, no plan, no engine.

    Returns the produced instance or number; an algebra result is
    registered under its ``AS`` target so later statements can read it.
    """
    stmt = parse(text)

    def keep(produced):
        if stmt.target is not None:
            database.register(stmt.target, produced, replace=True)
        return produced

    if isinstance(stmt, ast.ProductStatement):
        return keep(cartesian_product(
            database.get(stmt.left), database.get(stmt.right), stmt.new_root
        ))
    source = database.get(stmt.source)
    if isinstance(stmt, ast.ProjectStatement):
        return keep({
            "ancestor": ancestor_projection_local,
            "descendant": descendant_projection_local,
            "single": single_projection_local,
        }[stmt.kind](source, stmt.path))
    if isinstance(stmt, ast.SelectStatement):
        if stmt.card_label is not None:
            condition = ObjectCardinalityCondition(
                stmt.path, stmt.oid, stmt.card_label,
                CardinalityInterval(*stmt.card_bounds),
            )
        elif stmt.value is not None:
            condition = ObjectValueCondition(stmt.path, stmt.oid, stmt.value)
        else:
            condition = ObjectCondition(stmt.path, stmt.oid)
        selection = select_local(source, condition)
        check_probability_guard(
            selection.probability, stmt.prob_op, stmt.prob_bound
        )
        return keep(selection.instance)
    if isinstance(stmt, ast.PointStatement):
        return QueryEngine(source).point(stmt.path, stmt.oid)
    if isinstance(stmt, ast.ExistsStatement):
        return QueryEngine(source).exists(stmt.path)
    if isinstance(stmt, ast.ChainStatement):
        return QueryEngine(source).chain(list(stmt.chain))
    if isinstance(stmt, ast.ProbStatement):
        return QueryEngine(source).object_exists(stmt.oid)
    if isinstance(stmt, ast.CountStatement):
        return QueryEngine(source).count(stmt.path)
    if isinstance(stmt, ast.DistStatement):
        return match_count_distribution(source, stmt.path)
    raise ValueError(f"no direct form of {text!r}")


# ----------------------------------------------------------------------
# The five path operators, as statements, and answer comparison
# ----------------------------------------------------------------------
PATH_KINDS = ("exists", "count", "dist", "point", "project")

#: The two object queries: ``PROB`` of an object, ``CHAIN`` of the
#: dotted object chain passed as ``oid``.
OBJECT_KINDS = ("prob", "chain")


def path_statement(kind: str, path, oid=None, source: str = "base") -> str:
    """The PXQL statement of one path operator (or, ``path`` unused,
    one object query) over ``source``."""
    return {
        "exists": f"EXISTS {path} IN {source}",
        "count": f"COUNT {path} IN {source}",
        "dist": f"DIST {path} IN {source}",
        "point": f"POINT {path} : {oid} IN {source}",
        "project": f"PROJECT {path} FROM {source}",
        "prob": f"PROB {oid} IN {source}",
        "chain": f"CHAIN {oid} IN {source}",
    }[kind]


def assert_same_answer(got, expected, context, tol: float = 1e-9) -> None:
    """Two answers of one statement agree: floats (of type ``float``)
    and ``DIST`` dicts within ``tol``; instances in objects, edges and
    every OPF."""
    if isinstance(expected, ProbabilisticInstance):
        assert got.objects == expected.objects, context
        assert set(got.weak.graph().edges()) == \
            set(expected.weak.graph().edges()), context
        for oid in expected.non_leaves():
            assert_same_answer(
                dict(got.opf(oid).support()),
                dict(expected.opf(oid).support()), (context, oid), tol,
            )
    elif isinstance(expected, dict):
        assert set(got) == set(expected), context
        for key, probability in expected.items():
            assert got[key] == pytest.approx(probability, abs=tol), context
    else:
        assert type(got) is type(expected) is float, context
        assert got == pytest.approx(expected, abs=tol), context
