"""End-to-end integration tests stitching the whole system together."""

import random

import pytest

from repro import (
    InstanceBuilder,
    ObjectCondition,
    PathExpression,
    QueryEngine,
    ancestor_projection_local,
    cartesian_product,
    select_local,
)
from repro.algebra.extensions import rename_objects
from repro.analysis import summarize
from repro.bayesnet import PXMLBayesianNetwork
from repro.check.model import lint_instance
from repro.io.json_codec import read_instance, write_instance
from repro.protdb.patterns import (
    PatternNode,
    estimate_pattern_probability,
    pattern_probability,
)
from repro.pxql import Interpreter
from repro.semantics import GlobalInterpretation, WorldSampler
from repro.storage import Database
from repro.workloads import WorkloadSpec, generate_workload


def test_full_pipeline(tmp_path):
    """Build -> validate -> project -> select -> product -> persist ->
    reload -> query (all four engines agree)."""
    builder = InstanceBuilder("lib")
    builder.children("lib", "book", ["B1", "B2"])
    builder.opf("lib", {("B1",): 0.25, ("B2",): 0.15, ("B1", "B2"): 0.5, (): 0.1})
    builder.children("B1", "author", ["A1"])
    builder.opf("B1", {("A1",): 0.8, (): 0.2})
    builder.children("B2", "author", ["A2"])
    builder.opf("B2", {("A2",): 0.5, (): 0.5})
    builder.leaf("A1", "name", ["h", "g"], {"h": 0.9, "g": 0.1})
    builder.leaf("A2", "name", vpf={"g": 1.0})
    bib = builder.build()
    assert lint_instance(bib) == []

    # Situation 1: project to authors, keep queryable.
    authors = ancestor_projection_local(bib, "lib.book.author")
    assert QueryEngine(authors).point("lib.book.author", "A1") == pytest.approx(
        QueryEngine(bib).point("lib.book.author", "A1")
    )

    # Situation 2: selection.
    sure = select_local(
        bib, ObjectCondition(PathExpression.parse("lib.book"), "B1")
    ).instance

    # Situation 3: product with a renamed second source.
    other = rename_objects(bib, {oid: f"2{oid}" for oid in bib.objects})
    combined = cartesian_product(sure, other, new_root="lib")
    combined.validate()

    # Persist and reload through the catalog.
    db = Database(tmp_path)
    db.register("combined", combined)
    db.save("combined")
    reloaded = Database(tmp_path).get("combined")

    # Situation 4: the probability an author exists — all engines agree.
    path = "lib.book.author"
    exact = QueryEngine(reloaded, strategy="enumerate").point(path, "A1")
    assert QueryEngine(reloaded, strategy="bayes").point(path, "A1") == (
        pytest.approx(exact)
    )
    sampled = QueryEngine(reloaded, strategy="sample", samples=4000, seed=0)
    assert sampled.point(path, "A1") == pytest.approx(exact, abs=0.04)
    # The combined instance is a tree again (disjoint components).
    assert QueryEngine(reloaded, strategy="local").point(path, "A1") == (
        pytest.approx(exact)
    )


def test_pxql_drives_same_pipeline(tmp_path):
    builder = InstanceBuilder("lib")
    builder.children("lib", "book", ["B1"], card=(0, 1))
    builder.opf("lib", {("B1",): 0.7, (): 0.3})
    builder.children("B1", "author", ["A1"], card=(0, 1))
    builder.opf("B1", {("A1",): 0.5, (): 0.5})
    builder.leaf("A1", "name", ["h"], {"h": 1.0})
    database = Database(tmp_path)
    database.register("bib", builder.build())
    it = Interpreter(database)
    it.execute("PROJECT lib.book.author FROM bib AS authors")
    it.execute("SAVE authors")

    fresh = Interpreter(Database(tmp_path))
    direct = fresh.execute("POINT lib.book.author : A1 IN authors").value
    assert direct == pytest.approx(0.35)


def test_workload_round_trip_and_engines(tmp_path):
    workload = generate_workload(
        WorkloadSpec(depth=3, branching=2, labeling="FR", seed=77)
    )
    pi = workload.instance
    path = tmp_path / "w.json"
    write_instance(pi, path)
    reloaded = read_instance(path)
    summary = summarize(reloaded)
    assert summary.objects == 15
    assert summary.is_tree

    # Sampling frequencies track a local point query.
    target = sorted(reloaded.weak.leaves())[0]
    graph = reloaded.weak.graph()
    labels, current = [], target
    while current != reloaded.root:
        (parent,) = graph.parents(current)
        labels.append(graph.label(parent, current))
        current = parent
    labels.reverse()
    path_expr = PathExpression(reloaded.root, tuple(labels))
    exact = QueryEngine(reloaded).point(path_expr, target)
    sampler = WorldSampler(reloaded, seed=5)
    from repro.semistructured.paths import evaluate_path

    hits = sum(
        1 for _ in range(3000)
        if target in evaluate_path(sampler.sample().graph, path_expr)
    )
    assert hits / 3000 == pytest.approx(exact, abs=0.05)


def test_pattern_probability_against_bn_existential():
    """A linear pattern equals the path existential query; the pattern DP,
    the BN engine and sampling must all agree on it."""
    rng = random.Random(3)
    from tests.helpers import random_tree_instance

    pi = random_tree_instance(rng, depth=2, max_children=2)
    labels = sorted(pi.weak.graph().labels)
    label_pair = (labels[0], labels[-1])
    pattern = PatternNode.root(
        PatternNode.child(label_pair[0], PatternNode.child(label_pair[1]))
    )
    path = PathExpression(pi.root, label_pair)
    exact = QueryEngine(pi, strategy="enumerate").exists(path)
    assert pattern_probability(pi, pattern) == pytest.approx(exact)
    estimate = estimate_pattern_probability(pi, pattern, samples=3000, seed=1)
    low, high = estimate.confidence_interval(z=3.5)
    assert low - 1e-9 <= exact <= high + 1e-9


def test_bn_marginals_on_generated_workload():
    workload = generate_workload(
        WorkloadSpec(depth=2, branching=2, labeling="SL", seed=5)
    )
    pi = workload.instance
    bn = PXMLBayesianNetwork(pi)
    worlds = GlobalInterpretation.from_local(pi)
    for oid in sorted(pi.objects):
        assert bn.prob_exists(oid) == pytest.approx(
            worlds.prob_object_exists(oid)
        ), oid
