"""The columnar snapshot is an access method, not a plan fork.

A path step (ancestor ``PROJECT``; ``EXISTS`` / ``COUNT`` / ``DIST`` /
``POINT``) is one operator located one of two ways, chosen by the
executor when it runs (``Engine._strategy``).  What that leaves to pin:

* the accelerated run, the run as written (the walked reference inside
  the engine) and the direct operator call agree on every generated
  tree and DAG — and, where the instance is small enough to enumerate,
  with the possible-worlds semantics (Theorem 1);
* ``COUNT`` is exact on DAGs, a function of its input alone, and a
  ``float``;
* ``EXPLAIN`` names the strategy ``EXPLAIN ANALYZE`` then reports.
"""

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine, plan_statement
from repro.errors import NonTreeInstanceError
from repro.pxql import Interpreter, parse
from repro.queries.aggregates import expected_match_count
from repro.queries.engine import QueryEngine
from repro.queries.point import point_query
from repro.semistructured.paths import PathExpression
from repro.storage.database import Database
from repro.workloads.generator import WorkloadSpec, generate_workload
from tests.helpers import (
    PATH_KINDS,
    assert_same_answer,
    evaluate_directly,
    path_statement,
    random_dag_instance,
)
from tests.test_check_properties import INSTANCE_STRATEGY, _structural_paths

TOL = 1e-9

#: Instances up to this many objects are also checked against the
#: enumerated semantics (the depth-2 workloads, the 7-object DAGs).
ENUMERABLE_OBJECTS = 8


def _refuses(run):
    """Whether ``run`` refuses a non-tree (else its result)."""
    try:
        return False, run()
    except NonTreeInstanceError:
        return True, None


# ----------------------------------------------------------------------
# (f) accelerated == as written == direct operator (== enumeration)
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(instance=INSTANCE_STRATEGY, seed=st.integers(0, 10_000))
def test_access_methods_agree_on_every_generated_instance(instance, seed):
    root = instance.root
    is_tree = instance.weak.graph().is_tree(root)
    structural = _structural_paths(instance.weak.graph(), root)
    rng = random.Random(seed)
    chosen = rng.sample(sorted(structural), min(3, len(structural)))
    chosen.append((*max(chosen, key=len), "zzz"))      # matches nothing

    database = Database()
    database.register("base", instance)
    engine = Engine(database, caching=False)
    oracle = (
        QueryEngine(instance, strategy="enumerate")
        if len(instance) <= ENUMERABLE_OBJECTS else None
    )
    for labels in chosen:
        path = PathExpression(root, labels)
        objects = sorted(structural.get(labels, ()))
        for kind in PATH_KINDS:
            targets = [*objects[:2], root] if kind == "point" else [None]
            for oid in targets:
                text = path_statement(kind, path, oid)
                plan = plan_statement(parse(text))
                refused, written = _refuses(
                    lambda: engine.execute_as_written(plan)
                )
                assert _refuses(
                    lambda: evaluate_directly(database, text)
                )[0] == refused, text
                # The tree-only algorithms still refuse a DAG.
                assert refused == (
                    not is_tree and kind in ("dist", "project")
                ), text
                if refused:
                    skipped, run = _refuses(lambda: engine.execute_plan(plan))
                    # Only a proof may answer where the algorithm
                    # does not apply: nothing matches, so {0: 1}.
                    assert skipped or (
                        run.stats.cache == "skip" and run.value == {0: 1.0}
                    ), text
                    continue
                assert written.stats.strategy != "indexed", text
                accelerated = engine.execute_plan(plan)
                assert accelerated.plan == plan, text
                if accelerated.stats.cache != "skip":
                    assert (accelerated.stats.strategy == "indexed") == is_tree
                assert_same_answer(accelerated.value, written.value, text)
                assert_same_answer(
                    accelerated.value, evaluate_directly(database, text), text
                )
                if oracle is not None and kind in ("exists", "count", "point"):
                    expected = {
                        "exists": lambda: oracle.exists(path),
                        "count": lambda: oracle.count(path),
                        "point": lambda: oracle.point(path, oid),
                    }[kind]()
                    assert accelerated.value == pytest.approx(
                        expected, abs=TOL
                    ), text


# ----------------------------------------------------------------------
# COUNT on DAGs: exact through the strategy facade, refused by the
# tree-only functions (it used to answer 0.0)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(3, 13))
def test_count_on_a_dag_equals_enumeration(seed):
    pi = random_dag_instance(random.Random(seed))
    path = PathExpression.parse("r.a.b")
    expected = QueryEngine(pi, strategy="enumerate").count(path)
    assert expected > 0.5

    interpreter = Interpreter(Database())
    interpreter.database.register("d", pi)
    assert interpreter.execute("COUNT r.a.b IN d").value == pytest.approx(
        expected, abs=TOL
    )
    plan = plan_statement(parse("COUNT r.a.b IN d"))
    written = interpreter.engine.execute_as_written(plan)
    assert written.value == pytest.approx(expected, abs=TOL)
    assert written.stats.strategy == "bayes"
    assert interpreter.fallbacks == []

    with pytest.raises(NonTreeInstanceError):
        expected_match_count(pi, path)
    with pytest.raises(NonTreeInstanceError):
        point_query(pi, path, "z0")


# ----------------------------------------------------------------------
# COUNT is a function of its input, and a float
# ----------------------------------------------------------------------
def test_walked_count_does_not_depend_on_the_hash_seed():
    """The matched objects are a ``frozenset`` of strings: its iteration
    order differs per process, the sum over it must not."""
    script = textwrap.dedent("""
        from repro.queries.aggregates import expected_match_count
        from repro.workloads.generator import WorkloadSpec, generate_workload

        pi = generate_workload(
            WorkloadSpec(depth=5, branching=3, labeling="SL", seed=7)
        ).instance
        for tail in ("l2_0.l3_0.l4_0", "l2_0.l3_0.l4_1", "l2_0.l3_1.l4_0",
                     "l2_0.l3_1.l4_1", "l2_1.l3_1.l4_0", "l2_1.l3_1.l4_1"):
            print(repr(expected_match_count(pi, "o0.l0_1.l1_0." + tail)))
    """)
    source = str(Path(__file__).resolve().parents[1] / "src")
    printed = set()
    for hash_seed in ("1", "2", "3"):
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=120,
            env={**os.environ, "PYTHONHASHSEED": hash_seed,
                 "PYTHONPATH": source},
        )
        assert done.returncode == 0, done.stderr
        printed.add(done.stdout)
    assert len(printed) == 1, printed
    assert all(float(line) > 0.0 for line in printed.pop().split())


def test_empty_count_is_a_float_on_both_access_methods():
    pi = generate_workload(
        WorkloadSpec(depth=2, branching=2, labeling="SL", seed=1)
    ).instance
    nothing = PathExpression(pi.root, ("no_such_label",))
    direct = expected_match_count(pi, nothing)
    assert (type(direct), direct) == (float, 0.0)

    database = Database()
    database.register("base", pi)
    engine = Engine(database, caching=False, absint=False)   # no proof skip
    plan = plan_statement(parse(path_statement("count", nothing)))
    indexed = engine.execute_plan(plan)
    walked = engine.execute_as_written(plan)
    assert (indexed.stats.strategy, walked.stats.strategy) == \
        ("indexed", "local")
    for run in (indexed, walked):
        assert (type(run.value), run.value) == (float, 0.0)


# ----------------------------------------------------------------------
# EXPLAIN names the strategy EXPLAIN ANALYZE reports
# ----------------------------------------------------------------------
def _strategy_of(text):
    """``strategy=`` on the root line of an EXPLAIN [ANALYZE] rendering."""
    root = text.splitlines()[0]
    return root.split("strategy=")[1].split(",")[0].rstrip(")")


@pytest.fixture(scope="module")
def sources():
    """An interpreter over a tree, a DAG and a name derived from the
    tree, with a live path (and a target on it) per source."""
    interpreter = Interpreter(Database())
    tree = generate_workload(
        WorkloadSpec(depth=2, branching=2, labeling="SL", seed=1)
    ).instance
    interpreter.database.register("tree", tree)
    interpreter.database.register("dag", random_dag_instance(random.Random(3)))
    graph = tree.weak.graph()
    (label,) = {graph.label(tree.root, c) for c in graph.children(tree.root)}
    child = sorted(graph.children(tree.root))[0]
    (below,) = {graph.label(child, c) for c in graph.children(child)}
    live = f"{tree.root}.{label}.{below}"
    target = sorted(graph.children(child))[0]
    interpreter.execute(f"PROJECT {live} FROM tree AS derived")
    return interpreter, {
        "tree scan": ("tree", live, target),
        "DAG scan": ("dag", "r.a.b", "z0"),
        "derived name": ("derived", live, target),
        "guide-dead path": ("tree", f"{live}.zzz", target),
    }


@pytest.mark.parametrize("kind", PATH_KINDS)
@pytest.mark.parametrize(
    "source", ("tree scan", "DAG scan", "derived name", "guide-dead path")
)
def test_explain_names_the_strategy_that_runs(sources, source, kind):
    interpreter, cases = sources
    name, path, oid = cases[source]
    statement = path_statement(kind, path, oid, source=name)
    planned = _strategy_of(interpreter.execute(f"EXPLAIN {statement}").text)
    try:
        analyzed = interpreter.execute(f"EXPLAIN ANALYZE {statement}").text
    except NonTreeInstanceError:
        # A tree-only algorithm on a DAG: planned as what it is.
        assert (source, planned) == ("DAG scan", "local")
        assert kind in ("dist", "project")
        return
    assert planned == _strategy_of(analyzed), statement
    expected = {
        "tree scan": "indexed",
        "DAG scan": "bayes",
        # Re-projecting a projection on its own path collapses onto
        # the base scan (collapse_adjacent_projections via lineage).
        "derived name": "indexed" if kind == "project" else "local",
        "guide-dead path": "indexed" if kind == "project" else "absint",
    }[source]
    assert planned == expected, statement
