"""The columnar snapshot is an access method, not a plan fork.

A path step (ancestor ``PROJECT``; ``EXISTS`` / ``COUNT`` / ``DIST`` /
``POINT``) is one operator located one of two ways, chosen by the
executor when it runs (``Engine._strategy``); ``PROB`` / ``CHAIN`` on a
scanned tree read the same snapshot's memoised root-chain products.
What that leaves to pin:

* the accelerated run, the run as written (the walked reference inside
  the engine) and the direct operator call agree on every generated
  tree and DAG — and, where the instance is small enough to enumerate,
  with the possible-worlds semantics (Theorem 1);
* each query computes its answer and nothing else, and that answer is
  its predecessor's: the scalar ``eps_r``, the ``reach`` memo and the
  mask-grouped ``DIST`` against the full epsilon pass, the closed-form
  existence, the network and the per-entry convolution;
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

from repro.algebra.projection_prob import epsilon_pass, root_epsilon
from repro.analysis import existence_probability
from repro.bayesnet.mapping import PXMLBayesianNetwork
from repro.core.distributions import ObjectProbabilityFunction, TabularOPF
from repro.engine import Engine, plan_statement
from repro.errors import NonTreeInstanceError
from repro.index import ColumnarInstance
from repro.pxql import Interpreter, parse
from repro.queries.aggregates import (
    expected_match_count,
    match_count_distribution,
)
from repro.queries.engine import QueryEngine
from repro.queries.point import point_query
from repro.semantics.global_interpretation import GlobalInterpretation
from repro.semistructured.paths import (
    PathExpression,
    evaluate_path,
    match_path,
)
from repro.storage.database import Database
from repro.workloads.generator import (
    WorkloadSpec,
    generate_workload,
    random_projection_path,
)
from tests.helpers import (
    OBJECT_KINDS,
    PATH_KINDS,
    assert_same_answer,
    evaluate_directly,
    path_statement,
    random_dag_instance,
)
from tests.test_check_properties import INSTANCE_STRATEGY, _structural_paths

TOL = 1e-9

#: A rewritten pass against the one it replaces: rounding only.
EXACT = 1e-12

#: Instances up to this many objects are also checked against the
#: enumerated semantics (the depth-2 workloads, the 7-object DAGs).
ENUMERABLE_OBJECTS = 8


def _refuses(run):
    """Whether ``run`` refuses a non-tree (else its result)."""
    try:
        return False, run()
    except NonTreeInstanceError:
        return True, None


def _a_chain_to(graph, root, oid):
    """A dotted root-to-``oid`` object chain (the one, on a tree)."""
    chain = [oid]
    while chain[-1] != root:
        chain.append(min(graph.parents(chain[-1])))
    return ".".join(reversed(chain))


def _enumerated_dist(instance, path):
    """``DIST`` by Theorem 1: the match count of every compatible world."""
    dist = {}
    for world, mass in GlobalInterpretation.from_local(instance).support():
        count = len(evaluate_path(world.graph, path))
        dist[count] = dist.get(count, 0.0) + mass
    return dist


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
    engine = Engine(database)
    oracle = (
        QueryEngine(instance, strategy="enumerate")
        if len(instance) <= ENUMERABLE_OBJECTS else None
    )
    for labels in chosen:
        path = PathExpression(root, labels)
        objects = sorted(structural.get(labels, ()))
        graph = instance.weak.graph()
        targets_of = {
            "point": [*objects[:2], root],
            "prob": objects[:2],
            "chain": [_a_chain_to(graph, root, o) for o in objects[:2]],
        }
        for kind in (*PATH_KINDS, *OBJECT_KINDS):
            for oid in targets_of.get(kind, [None]):
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
                        run.span.attributes["strategy"] == "absint" and run.value == {0: 1.0}
                    ), text
                    continue
                assert written.span.attributes["strategy"] != "indexed", text
                accelerated = engine.execute_plan(plan)
                assert accelerated.plan == plan, text
                if accelerated.span.attributes["strategy"] != "absint":
                    assert (accelerated.span.attributes["strategy"] == "indexed") == is_tree
                assert_same_answer(accelerated.value, written.value, text)
                assert_same_answer(
                    accelerated.value, evaluate_directly(database, text), text
                )
                if oracle is not None and kind != "project":
                    expected = {
                        "exists": lambda: oracle.exists(path),
                        "count": lambda: oracle.count(path),
                        "dist": lambda: _enumerated_dist(instance, path),
                        "point": lambda: oracle.point(path, oid),
                        "prob": lambda: oracle.object_exists(oid),
                        "chain": lambda: oracle.chain(oid.split(".")),
                    }[kind]()
                    if kind == "dist":
                        assert_same_answer(accelerated.value, expected, text)
                    else:       # the enumerated sum of no world is int 0
                        assert accelerated.value == pytest.approx(
                            expected, abs=TOL
                        ), text


# ----------------------------------------------------------------------
# Each query computes its answer alone — and it is its predecessor's
# ----------------------------------------------------------------------
def _reference_count_distribution(pi, path):
    """``match_count_distribution`` as it was before the masks: one
    dict convolution per OPF entry (kept verbatim as the reference)."""
    match = match_path(pi.weak.graph(), path)
    if match.is_empty:
        return {0: 1.0}
    depth = len(match.levels) - 1
    if depth == 0:
        return {1: 1.0}
    counts = {}
    for oid in match.levels[depth]:
        counts[oid] = {1: 1.0}
    for level in range(depth - 1, -1, -1):
        children_of = {}
        for src, dst in match.level_edges[level]:
            if dst in counts:
                children_of.setdefault(src, []).append(dst)
        for oid in match.levels[level]:
            kept = children_of.get(oid, [])
            opf = pi.opf(oid)
            dist = {}
            for child_set, p_children in opf.support():
                partial = {0: 1.0}
                for child in kept:
                    if child not in child_set:
                        continue
                    merged = {}
                    for left, lp in partial.items():
                        for right, rp in counts[child].items():
                            merged[left + right] = (
                                merged.get(left + right, 0.0) + lp * rp
                            )
                    partial = merged
                for total, probability in partial.items():
                    dist[total] = dist.get(total, 0.0) + p_children * probability
            counts[oid] = dist
    return counts.get(pi.root, {0: 1.0})


@settings(max_examples=40, deadline=None)
@given(instance=INSTANCE_STRATEGY, seed=st.integers(0, 10_000))
def test_each_pass_equals_the_one_it_replaces(instance, seed):
    root = instance.root
    structural = _structural_paths(instance.weak.graph(), root)
    paths = [PathExpression(root, labels) for labels in sorted(structural)]
    paths.append(PathExpression(root, (*paths[-1].labels, "zzz")))
    if not instance.weak.graph().is_tree(root):
        # The tree-only passes refuse a DAG as their predecessors do.
        for path in paths:
            for refuse in (epsilon_pass, root_epsilon, match_count_distribution):
                with pytest.raises(NonTreeInstanceError):
                    refuse(instance, path)
        return

    for path in paths:
        assert root_epsilon(instance, path) == pytest.approx(
            epsilon_pass(instance, path).root_epsilon, abs=EXACT
        ), path
        assert_same_answer(
            match_count_distribution(instance, path),
            _reference_count_distribution(instance, path), path, tol=EXACT,
        )

    col = ColumnarInstance.from_instance(instance)
    objects = sorted(instance.objects)
    network = PXMLBayesianNetwork(instance)
    for oid in random.Random(seed).sample(objects, min(4, len(objects))):
        assert col.reach(instance, oid) == pytest.approx(
            network.prob_exists(oid), abs=EXACT
        ), oid
    for oid in objects:
        assert col.reach(instance, oid) == pytest.approx(
            existence_probability(instance, oid), abs=EXACT
        ), oid
    assert col.reach(instance, "no such object") == 0.0


@pytest.fixture
def cold_tree():
    """An interpreter over a depth-4 tabular tree whose snapshot, guide
    and measurements are already there, and two untouched deep paths
    (with the ancestor closure of the first one's match)."""
    pi = generate_workload(
        WorkloadSpec(depth=4, branching=3, labeling="FR", seed=5)
    ).instance
    interpreter = Interpreter(Database())
    interpreter.database.register("t", pi)
    graph = pi.weak.graph()
    deep = sorted(
        labels for labels in _structural_paths(graph, pi.root)
        if len(labels) == 4
    )
    interpreter.execute(f"EXISTS {PathExpression(pi.root, deep[0])} IN t")
    first, second = (PathExpression(pi.root, labels) for labels in deep[1:3])
    closure = match_path(graph, first).kept_objects()
    return interpreter, first, second, closure


def test_a_cold_indexed_exists_builds_no_opf(cold_tree, monkeypatch):
    interpreter, first, _second, _closure = cold_tree
    built = []
    real = TabularOPF.__init__

    def counting(self, table):
        built.append(len(table))
        real(self, table)

    monkeypatch.setattr(TabularOPF, "__init__", counting)
    result = interpreter.execute(f"EXPLAIN ANALYZE EXISTS {first} IN t")
    assert "strategy=indexed" in result.text.splitlines()[0]
    assert built == []


def test_a_cold_count_asks_each_inclusion_once(cold_tree, monkeypatch):
    """``reach`` is memoised on the snapshot: a cold ``COUNT`` makes at
    most one ``marginal_inclusion`` call per object of its match's
    ancestor closure, and a later statement over them makes none."""
    interpreter, first, second, closure = cold_tree
    asked = []
    real = ObjectProbabilityFunction.marginal_inclusion

    def counting(self, oid):
        asked.append(oid)
        return real(self, oid)

    monkeypatch.setattr(ObjectProbabilityFunction, "marginal_inclusion", counting)
    count = interpreter.execute(f"COUNT {first} IN t").value
    assert count > 0.0
    assert 0 < len(asked) <= len(closure) - 1       # the root has no link
    assert len(set(asked)) == len(asked)
    assert set(asked) <= closure

    target = min(interpreter.database.get("t").memo["snapshot"]
                 ._match_memo[first].matched)
    del asked[:]
    assert 0.0 < interpreter.execute(f"POINT {first} : {target} IN t").value
    assert interpreter.execute(f"PROB {target} IN t").value > 0.0
    assert asked == []
    interpreter.execute(f"COUNT {second} IN t")
    assert not set(asked) & closure
    assert interpreter.metrics.value("resilience.fallbacks") == 0


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
    assert written.span.attributes["strategy"] == "bayes"
    assert interpreter.metrics.value("resilience.fallbacks") == 0

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
    engine = Engine(database, absint=False)   # no proof skip
    plan = plan_statement(parse(path_statement("count", nothing)))
    indexed = engine.execute_plan(plan)
    walked = engine.execute_as_written(plan)
    assert (indexed.span.attributes["strategy"], walked.span.attributes["strategy"]) == \
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
    chain = f"{tree.root}.{child}.{target}"
    interpreter.execute(f"PROJECT {live} FROM tree AS derived")
    return interpreter, {
        "tree scan": ("tree", live, target, chain),
        "DAG scan": ("dag", "r.a.b", "z0", "r.m0.z0"),
        "derived name": ("derived", live, target, chain),
        "guide-dead path": ("tree", f"{live}.zzz", target, chain),
    }


@pytest.mark.parametrize("kind", (*PATH_KINDS, *OBJECT_KINDS))
@pytest.mark.parametrize(
    "source", ("tree scan", "DAG scan", "derived name", "guide-dead path")
)
def test_explain_names_the_strategy_that_runs(sources, source, kind):
    interpreter, cases = sources
    name, path, oid, chain = cases[source]
    statement = path_statement(
        kind, path, chain if kind == "chain" else oid, source=name
    )
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
        # A derived name is a registered tree like any other.
        "derived name": "indexed",
        # PROB / CHAIN name no path: the proof has nothing to skip.
        "guide-dead path": (
            "indexed" if kind in ("project", *OBJECT_KINDS) else "absint"
        ),
    }[source]
    assert planned == expected, statement


def test_a_derived_name_is_read_as_saved():
    """A selection over a registered projection scans that instance: the
    plan is ``Scan(slot)``, not the projection's lineage over ``big``,
    and the statement counts the projection's objects only."""
    workload = generate_workload(
        WorkloadSpec(depth=3, branching=3, labeling="FR", seed=2)
    )
    big = workload.instance
    path = random_projection_path(workload, random.Random(5))
    oid = sorted(match_path(big.weak.graph(), path).matched)[0]
    interpreter = Interpreter(Database())
    interpreter.database.register("big", big)
    interpreter.execute(f"PROJECT {path} FROM big AS slot")
    slot = interpreter.database.get("slot")
    assert len(slot) < len(big)

    selection = f"SELECT {path} = {oid} FROM slot"
    plan = interpreter.execute(f"EXPLAIN {selection}").text
    assert "Scan(slot)" in plan and "Scan(big)" not in plan
    before = interpreter.metrics.value("engine.objects_scanned")
    interpreter.execute(f"{selection} AS chosen")
    scanned = interpreter.metrics.value("engine.objects_scanned") - before
    assert scanned == len(slot)
