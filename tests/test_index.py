"""repro.index: the tree snapshot, matcher parity, caches, engine access.

The load-bearing contract is *parity*: the snapshot's matcher and the
per-child OPF marginalizer must produce results identical to the walked
evaluators they replace.  The randomized suites below hold that on 52
generated tree instances and a tree wider than any of them, check that a
DAG has no snapshot, and exercise the cache invalidation token, the
certificate-based skip of dead paths and the engine's runtime fallback.
"""

import random
from itertools import combinations

import pytest

import repro.check.dataguide as dataguide
from repro.algebra.projection_prob import (
    ancestor_projection_global,
    ancestor_projection_local,
)
from repro.check.absint import certify_plan
from repro.check.dataguide import guide_of
from repro.core.builder import InstanceBuilder
from repro.core.compact import IndependentOPF
from repro.core.distributions import TabularOPF
from repro.engine import (
    Engine,
    PlanBuilder,
    QueryNode,
    ScanNode,
    plan_statement,
)
from repro.index import (
    ColumnarInstance,
    marginalize,
    match_path_indexed,
    snapshot_of,
)
from repro.index.columnar import _MATCH_MEMO_CAP
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.tracing import Tracer, use_tracer
from repro.pxql import Interpreter, parse
from repro.semantics.global_interpretation import GlobalInterpretation
from repro.semistructured.graph import EdgeLabeledGraph
from repro.semistructured.paths import PathExpression, match_path
from repro.storage.database import Database
from repro.storage.derived import cache_token, derived, fetch
from repro.workloads.generator import (
    WorkloadSpec,
    generate_workload,
    random_projection_path,
)
from tests.helpers import (
    assert_same_answer,
    evaluate_directly,
    path_statement,
    random_dag_instance,
    random_tree_instance,
)

TOL = 1e-9

#: 52 generated tree instances (13 seeds x 2 labelings x 2 depths) — the
#: randomized parity population the issue's acceptance asks for.
SPECS = [
    WorkloadSpec(depth=depth, branching=2, labeling=labeling, seed=seed)
    for labeling in ("SL", "FR")
    for depth in (2, 3)
    for seed in range(13)
]
assert len(SPECS) >= 50


def _spec_id(spec):
    return f"{spec.labeling}-d{spec.depth}-s{spec.seed}"


def build_bib():
    """The paper's Figure 1 bibliography (same shape as the PXQL tests)."""
    b = InstanceBuilder("R")
    b.children("R", "book", ["B1", "B2"], card=(1, 2))
    b.opf("R", {("B1",): 0.4, ("B2",): 0.2, ("B1", "B2"): 0.4})
    b.children("B1", "author", ["A1"], card=(1, 1))
    b.opf("B1", {("A1",): 1.0})
    b.children("B2", "author", ["A2"], card=(0, 1))
    b.opf("B2", {("A2",): 0.5, (): 0.5})
    b.leaf("A1", "name", ["hung", "getoor"], {"hung": 0.9, "getoor": 0.1})
    b.leaf("A2", "name", None, {"hung": 0.5, "getoor": 0.5})
    return b.build()


def _assert_same_match(actual, expected):
    assert actual.path == expected.path
    assert actual.levels == expected.levels
    assert actual.edges == expected.edges
    assert actual.level_edges == expected.level_edges


# ----------------------------------------------------------------------
# Columnar snapshots
# ----------------------------------------------------------------------
class TestColumnarInstance:
    def test_tree_roundtrip(self):
        workload = generate_workload(SPECS[2])
        pi = workload.instance
        graph = pi.weak.graph()
        col = ColumnarInstance.from_instance(pi)
        assert col is not None
        assert col.root == pi.root
        assert len(col) == len(pi)
        assert set(col.oids) == set(graph.vertices)
        assert col.oids[0] == pi.root and col.parent[0] == -1
        for src, dst, label in graph.edges():
            position, up = col.index_of[dst], col.index_of[src]
            # Preorder: a parent precedes its children.
            assert col.parent[position] == up < position
            assert position in col.children[label][up]
        for by_parent in col.children.values():
            for kids in by_parent.values():
                assert kids == sorted(kids)

    def test_reach_follows_parent_pointers(self):
        from repro.queries.chain import chain_probability

        pi = build_bib()
        col = ColumnarInstance.from_instance(pi)
        assert 0.0 < col.reach(pi, "A2") < 1.0
        assert col.reach(pi, "A2") == chain_probability(pi, ["R", "B2", "A2"])
        assert col.reach(pi, "R") == 1.0
        assert col.reach(pi, "nobody") == 0.0

    def test_dag_snapshot(self):
        """Only a tree has a snapshot: a shared child, a cycle and an
        object the root cannot reach each make it ``None``."""
        pi = random_dag_instance(random.Random(1))
        assert ColumnarInstance.from_instance(pi) is None
        graph = EdgeLabeledGraph()
        graph.add_edge("r", "a", "l")
        assert ColumnarInstance.from_graph(graph, "r") is not None
        assert ColumnarInstance.from_graph(graph, "nowhere") is None
        cyclic = graph.copy()
        cyclic.add_edge("a", "r", "l")
        assert ColumnarInstance.from_graph(cyclic, "r") is None
        forest = graph.copy()
        forest.add_vertex("stray")
        assert ColumnarInstance.from_graph(forest, "r") is None


# ----------------------------------------------------------------------
# Randomized match parity: indexed == walked on 52 tree instances
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
def test_match_parity(spec):
    workload = generate_workload(spec)
    graph = workload.instance.weak.graph()
    col = ColumnarInstance.from_instance(workload.instance)
    rng = random.Random(spec.seed + 500)

    paths = [random_projection_path(workload, rng) for _ in range(3)]
    paths.append(paths[0].child("no_such_label"))      # dead end mid-walk
    paths.append(PathExpression(workload.instance.root))  # zero labels

    for path in paths:
        _assert_same_match(
            match_path_indexed(col, path, memo=False), match_path(graph, path)
        )


def _wide_tree(branching=8, depth=4):
    """A bare tree whose deepest level holds 2,048 objects: ``l<k>``
    edges to the first three quarters of each node's children and
    ``m<k>`` to the rest, and at depth 3 only the even-numbered objects
    have children, so a path's backward prune drops objects."""
    graph = EdgeLabeledGraph()
    graph.add_vertex("r")
    level = ["r"]
    for k in range(1, depth + 1):
        below = []
        for number, oid in enumerate(level):
            if k > 3 and number % 2:
                continue
            for i in range(branching):
                child = f"{oid}.{i}"
                label = f"l{k}" if i < branching * 3 // 4 else f"m{k}"
                graph.add_edge(oid, child, label)
                below.append(child)
        level = below
    return graph


def test_match_parity_wide_tree():
    """Levels far wider than 128 objects, the width the numpy gather
    used to take, match as the walk does."""
    graph = _wide_tree()
    col = ColumnarInstance.from_graph(graph, "r")
    assert col is not None
    full = PathExpression.parse("r.l1.l2.l3.l4")
    assert len(match_path(graph, full).levels[4]) > 128
    for text in ("r.l1.l2.l3.l4", "r.l1.l2.l3.m4", "r.m1.l2.m3.l4",
                 "r.l1.l2.l3", "r.l1.m2.nope", "r"):
        path = PathExpression.parse(text)
        _assert_same_match(
            match_path_indexed(col, path, memo=False), match_path(graph, path)
        )


@pytest.mark.parametrize("seed", range(6))
def test_match_parity_dag(seed):
    """A DAG has no snapshot: its ``None`` is kept on the instance
    (built and counted once), and a statement over it is walked and
    answers as the direct operator does."""
    pi = random_dag_instance(random.Random(seed))
    database = Database()
    database.register("base", pi)
    registry = MetricsRegistry()
    with use_registry(registry):
        assert snapshot_of("base", database.get("base")) is None
        assert snapshot_of("base", database.get("base")) is None
    assert registry.counter("index.builds").value == 1
    assert registry.counter("index.hits").value == 1

    interpreter = Interpreter(database)
    for text in ("EXISTS r.a.b IN base", "COUNT r.a.b IN base",
                 "POINT r.a.b : z1 IN base", "PROB z1 IN base"):
        assert_same_answer(
            interpreter.execute(text).value,
            evaluate_directly(database, text), text,
        )
        root = interpreter.execute(f"EXPLAIN ANALYZE {text}").text.splitlines()[0]
        assert "strategy=" in root and "strategy=indexed" not in root, text


def test_match_absent_root_is_empty():
    col = ColumnarInstance.from_instance(build_bib())
    match = match_path_indexed(col, PathExpression.parse("nowhere.book"))
    assert match.matched == frozenset()


# ----------------------------------------------------------------------
# Per-snapshot match memo
# ----------------------------------------------------------------------
class TestMatchMemo:
    def test_memo_hit_returns_same_object(self):
        col = ColumnarInstance.from_instance(build_bib())
        path = PathExpression.parse("R.book.author")
        first = match_path_indexed(col, path)
        assert match_path_indexed(col, path) is first

    def test_memo_false_bypasses(self):
        col = ColumnarInstance.from_instance(build_bib())
        path = PathExpression.parse("R.book")
        memoized = match_path_indexed(col, path)
        fresh = match_path_indexed(col, path, memo=False)
        assert fresh is not memoized
        _assert_same_match(fresh, memoized)

    def test_memo_is_bounded(self):
        col = ColumnarInstance.from_instance(build_bib())
        for index in range(_MATCH_MEMO_CAP + 10):
            match_path_indexed(col, PathExpression("R", (f"l{index}",)))
        assert len(col._match_memo) <= _MATCH_MEMO_CAP


# ----------------------------------------------------------------------
# OPF marginalization: the per-child transform over the mask table
# ----------------------------------------------------------------------
def _enumerated(opf, kept, epsilon):
    """The survivor-subset enumeration the transform replaced: every
    entry splits into each subset of its uncertain kept children."""
    certain = frozenset(c for c in kept if epsilon[c] >= 1.0)
    uncertain = sorted(c for c in kept if epsilon[c] < 1.0)
    accum = {}
    for child_set, probability in opf.support():
        sure_part = child_set & certain
        unc_in = [c for c in uncertain if c in child_set]
        for size in range(len(unc_in) + 1):
            for chosen in combinations(unc_in, size):
                weight = probability
                for child in chosen:
                    weight *= epsilon[child]
                for child in unc_in:
                    if child not in chosen:
                        weight *= 1.0 - epsilon[child]
                if weight == 0.0:
                    continue
                new_set = sure_part | frozenset(chosen)
                accum[new_set] = accum.get(new_set, 0.0) + weight
    return accum


def _assert_transform_matches(opf, kept, epsilon):
    table = marginalize(opf, kept, epsilon)
    got = {frozenset(opf.members(mask)): p for mask, p in table.items() if p}
    reference = _enumerated(opf, kept, epsilon)
    assert set(got) == set(reference)
    for key, value in reference.items():
        assert got[key] == pytest.approx(value, abs=1e-12)


def _random_opf(rng, children):
    subsets = {
        frozenset(rng.sample(children, rng.randint(0, len(children) - 1)))
        for _ in range(8)
    }
    weights = {subset: rng.uniform(0.05, 1.0) for subset in subsets}
    total = sum(weights.values())
    return TabularOPF({s: w / total for s, w in weights.items()})


@pytest.mark.parametrize("seed", range(12))
def test_marginalize_parity(seed):
    rng = random.Random(seed)
    children = [f"c{i}" for i in range(6)]
    opf = _random_opf(rng, children)
    kept = sorted(rng.sample(children, 4))
    epsilon = {
        c: 1.0 if rng.random() < 0.3 else rng.uniform(0.05, 0.95)
        for c in children
    }
    _assert_transform_matches(opf, kept, epsilon)


@pytest.mark.parametrize("branching", [4, 8])
def test_marginalize_full_tables_match_the_enumeration(branching):
    """The paper's full ``2^b`` tables, with every child kept, some
    kept and a certain child among them: the transform's table is the
    enumeration's, key for key."""
    rng = random.Random(branching)
    children = [f"c{i}" for i in range(branching)]
    opf = IndependentOPF(
        {child: rng.uniform(0.2, 0.8) for child in children}
    ).to_tabular()
    assert opf.entry_count() == 1 << branching
    epsilon = {child: rng.uniform(0.05, 0.95) for child in children}
    for kept in (children, children[:2], children[1::2]):
        _assert_transform_matches(opf, kept, epsilon)
    epsilon[children[0]] = 1.0
    _assert_transform_matches(opf, children, epsilon)


def test_marginalize_all_certain_short_circuits():
    """With every kept child certain there is nothing to split: the
    table is the input's with the dropped children summed out."""
    rng = random.Random(99)
    children = [f"c{i}" for i in range(4)]
    opf = _random_opf(rng, children)
    kept = children[:3]
    epsilon = {c: 1.0 for c in children}
    _assert_transform_matches(opf, kept, epsilon)
    summed = {}
    for child_set, p in opf.support():
        key = child_set - {children[3]}
        summed[key] = summed.get(key, 0.0) + p
    table = marginalize(opf, kept, epsilon)
    assert {frozenset(opf.members(m)): p for m, p in table.items()} == (
        pytest.approx(summed)
    )


@pytest.mark.parametrize("seed", range(10))
def test_projection_through_the_transform_matches_the_worlds(seed):
    """``ancestor_projection_local`` (the transform on every tabular
    OPF of the match) against Definition 5.3 by world enumeration in
    :mod:`repro.semantics`."""
    rng = random.Random(seed)
    pi = random_tree_instance(rng, depth=rng.choice([2, 3]), max_children=3)
    graph = pi.weak.graph()
    labels, current = [], pi.root
    while graph.children(current):
        child = rng.choice(sorted(graph.children(current)))
        labels.append(graph.label(current, child))
        current = child
    path = PathExpression(pi.root, tuple(labels))
    reference = ancestor_projection_global(pi, path)
    local = ancestor_projection_local(pi, path)
    local.validate()
    rebuilt = GlobalInterpretation.from_local(local)
    assert rebuilt.is_close_to(reference, tolerance=1e-9), str(path)


# ----------------------------------------------------------------------
# The one catalog token: (version, generation)
# ----------------------------------------------------------------------
class _GenerationCatalog:
    """A fake catalog whose generation counter the test can bump."""

    def __init__(self, instance):
        self._instance = instance
        self.bumps = 0

    def get(self, name):
        return self._instance

    def version(self, name):
        return 7

    def generation(self):
        return self.bumps


class TestCacheTokens:
    def test_cache_token_tracks_generation(self):
        catalog = _GenerationCatalog(build_bib())
        assert cache_token(catalog, "bib") == (7, 0)
        catalog.bumps += 1
        assert cache_token(catalog, "bib") == (7, 1)

    def test_cache_token_without_generation_defaults_to_zero(self):
        class _Plain:
            def version(self, name):
                return 3

        assert cache_token(_Plain(), "x") == (3, 0)

    def test_a_generation_the_statement_read_is_not_read_again(self):
        catalog = _GenerationCatalog(build_bib())

        def read_again():
            raise AssertionError("the generation was read a second time")

        catalog.generation = read_again
        assert cache_token(catalog, "bib", 4) == (7, 4)
        assert fetch(catalog, "bib", 4) is catalog.get("bib")

    @staticmethod
    def _saved_elsewhere(tmp_path):
        """A catalog object that has read ``bib``, and a sibling's save
        of a different ``bib`` on the same directory."""
        database = Database(tmp_path)
        database.register("bib", build_bib())
        database.save("bib")
        served = fetch(database, "bib")
        sibling = Database(tmp_path)
        sibling.register("bib", build_bib(), replace=True)
        sibling.save("bib")
        return database, served

    def test_dataguide_cache_invalidated_by_generation(self, tmp_path):
        """Regression: a catalog mutated by another process (a
        generation bump, no in-process version move) must not serve a
        stale dataguide: the scan maps the name to the new file's
        instance, with a guide of its own."""
        database, served = self._saved_elsewhere(tmp_path)
        first = guide_of(served)
        assert guide_of(served) is first
        assert guide_of(fetch(database, "bib")) is not first

    def test_index_cache_invalidated_by_generation(self, tmp_path):
        database, served = self._saved_elsewhere(tmp_path)
        first = snapshot_of("bib", served)
        assert snapshot_of("bib", served) is first
        assert snapshot_of("bib", fetch(database, "bib")) is not first


class TestIndexCache:
    """(Named for the per-catalog cache that is gone.)  A snapshot is
    kept on its frozen instance."""

    def test_counters_and_rebuild_on_version_bump(self):
        registry = MetricsRegistry()
        tracer = Tracer()
        database = Database()
        database.register("bib", build_bib())
        with use_registry(registry), use_tracer(tracer):
            first = snapshot_of("bib", database.get("bib"))
            assert snapshot_of("bib", database.get("bib")) is first
            database.register("bib", build_bib(), replace=True)
            rebuilt = snapshot_of("bib", database.get("bib"))
        assert rebuilt is not first
        assert registry.counter("index.builds").value == 2
        assert registry.counter("index.hits").value == 1
        assert registry.counter("index.misses").value == 2
        builds = [root for root in tracer.roots() if root.name == "index.build"]
        assert [span.attributes["instance"] for span in builds] == ["bib", "bib"]

    def test_a_failed_build_is_not_kept(self, monkeypatch):
        database = Database()
        database.register("bib", build_bib())
        pi = database.get("bib")

        def broken(instance):
            raise RuntimeError("no snapshot today")

        tracer = Tracer()
        monkeypatch.setattr(ColumnarInstance, "from_instance", broken)
        with use_tracer(tracer):
            assert snapshot_of("bib", pi) is None
        assert "index.build_error" in [root.name for root in tracer.roots()]
        assert "snapshot" not in pi.memo
        monkeypatch.undo()
        assert snapshot_of("bib", pi) is not None
        assert pi.memo["snapshot"] is snapshot_of("bib", pi)

    def test_a_racing_build_keeps_one_value(self):
        """Two builds of one kind may run; the first value kept is the
        one both callers get."""
        database = Database()
        database.register("bib", build_bib())
        pi = database.get("bib")

        def outer(instance):
            # Another reader misses and builds while this build runs.
            inner = derived(instance, "objects", lambda _: frozenset(pi.objects))
            return set(inner)

        assert derived(pi, "objects", outer) is pi.memo["objects"]
        assert isinstance(pi.memo["objects"], frozenset)

    def test_a_mutable_instance_keeps_nothing(self):
        pi = build_bib()
        assert pi.memo is None
        assert snapshot_of("bib", pi) is not snapshot_of("bib", pi)


# ----------------------------------------------------------------------
# The dead-path proof: dataguide folded into the absint certificate
# ----------------------------------------------------------------------
def _zero_mass_bib():
    """``R.book.isbn`` matches the weak structure (B2 has an isbn) but
    B2 has zero inclusion probability, so only the guide can kill it."""
    b = InstanceBuilder("R")
    b.children("R", "book", ["B1", "B2"], card=(1, 2))
    b.opf("R", {("B1",): 1.0})
    b.leaf("B1", "title", ["t"], {"t": 1.0})
    b.children("B2", "isbn", ["I2"], card=(1, 1))
    b.opf("B2", {("I2",): 1.0})
    b.leaf("I2", "code", ["c"], {"c": 1.0})
    return b.build()


def _skippable(database, path):
    plan = PlanBuilder.scan("bib").exists(PathExpression.parse(path)).build()
    return certify_plan(plan, database).skippable


class TestDeadPathProof:
    def test_proof_only_from_a_covering_guide(self):
        database = Database()
        database.register("bib", build_bib())
        assert not _skippable(database, "R.book")
        assert _skippable(database, "R.movie")
        # Rooted at a non-root object: no guide speaks for the path, yet
        # it matches nothing — a path starts at the instance root.
        assert _skippable(database, "B1.author")

    def test_proof_only_from_an_untruncated_guide(self, monkeypatch):
        database = Database()
        database.register("bib", _zero_mass_bib())
        assert match_path(
            database.get("bib").weak.graph(), PathExpression.parse("R.book.isbn")
        ).matched == {"I2"}
        assert _skippable(database, "R.book.isbn")
        monkeypatch.setattr(dataguide, "DEFAULT_MAX_PATHS", 1)
        database.register("bib", _zero_mass_bib(), replace=True)
        assert guide_of(database.get("bib")).truncated
        assert not _skippable(database, "R.book.isbn")

    def test_broken_catalog_proves_nothing(self):
        class _Broken:
            def get(self, name):
                raise RuntimeError("boom")

            def version(self, name):
                return 1

        assert not _skippable(_Broken(), "R.book")


# ----------------------------------------------------------------------
# Engine parity: the snapshot is an access method — the accelerated run
# (path located on it), the run as written (walked: the in-engine
# reference) and the direct operator call answer alike, on one plan
# ----------------------------------------------------------------------
def _path_statements(path, oid):
    return {
        kind: path_statement(kind, path, oid)
        for kind in ("exists", "count", "point", "dist")
    }


def _engine_over(instance, **options):
    database = Database()
    database.register("base", instance.copy())
    return Engine(database, **options)


@pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
def test_engine_index_parity(spec):
    workload = generate_workload(spec)
    rng = random.Random(spec.seed + 900)
    path = random_projection_path(workload, rng)
    graph = workload.instance.weak.graph()
    oid = rng.choice(sorted(match_path(graph, path).matched))

    # The same labels re-rooted one level down, at oid's ancestor: no
    # object satisfies a path that does not start at the instance root,
    # whatever the access method — and the certificate proves it, so the
    # accelerated run is the proof-based skip.
    chain = [oid]
    while chain[-1] != path.root:
        (parent,) = graph.parents(chain[-1])
        chain.append(parent)
    rerooted = PathExpression(chain[-2], path.labels[1:])

    engine = _engine_over(workload.instance)
    statements = [
        *(("indexed", *item) for item in _path_statements(path, oid).items()),
        *(("absint", *item) for item in _path_statements(rerooted, oid).items()),
    ]
    for strategy, kind, text in statements:
        plan = plan_statement(parse(text))
        indexed = engine.execute_plan(plan)
        assert indexed.span.attributes["strategy"] == strategy, kind
        assert indexed.plan == plan, kind
        walked = engine.execute_as_written(plan)
        assert walked.span.attributes["strategy"] == "local", kind
        assert_same_answer(indexed.value, walked.value, kind)
        assert_same_answer(
            indexed.value, evaluate_directly(engine.database, text), kind
        )


@pytest.mark.parametrize("spec", SPECS[::4], ids=_spec_id)
def test_engine_indexed_projection_parity(spec):
    workload = generate_workload(spec)
    rng = random.Random(spec.seed + 901)
    path = random_projection_path(workload, rng)

    engine = _engine_over(workload.instance)
    text = path_statement("project", path)
    plan = plan_statement(parse(text))
    indexed = engine.execute_plan(plan)
    assert indexed.span.attributes["strategy"] == "indexed"
    assert indexed.plan == plan
    walked = engine.execute_as_written(plan)
    assert walked.span.attributes["strategy"] == "local"
    for reference in (walked.value, evaluate_directly(engine.database, text)):
        assert_same_answer(indexed.value, reference, text)


def test_engine_dag_stays_walked():
    """A DAG's measurement says not-a-tree before any snapshot is asked
    for: the walked operators answer, and results still agree."""
    registry = MetricsRegistry()
    engine = _engine_over(
        random_dag_instance(random.Random(3)), metrics=registry
    )
    path = PathExpression.parse("r.a.b")
    for kind in ("exists", "count"):
        text = _path_statements(path, None)[kind]
        plan = plan_statement(parse(text))
        execution = engine.execute_plan(plan)
        assert execution.span.attributes["strategy"] == "bayes", kind
        assert_same_answer(
            execution.value, engine.execute_as_written(plan).value, kind
        )
        assert_same_answer(
            execution.value, evaluate_directly(engine.database, text), kind
        )
    assert registry.counter("index.builds").value == 0
    assert registry.counter("index.fallbacks").value == 0


def test_engine_unbuildable_snapshot_falls_back_to_the_walk(monkeypatch):
    """A fault at the snapshot build is an ``index.build_error`` event
    and one ``index.fallbacks``; the walked operator answers."""
    registry = MetricsRegistry()
    engine = _engine_over(build_bib(), metrics=registry)
    plan = PlanBuilder.scan("base").exists("R.book.author").build()
    expected = engine.execute_as_written(plan).value

    def explode(cls, pi):
        raise RuntimeError("no snapshot today")

    monkeypatch.setattr(ColumnarInstance, "from_instance", classmethod(explode))
    execution = engine.execute_plan(plan)
    assert execution.value == pytest.approx(expected, abs=TOL)
    assert execution.span.attributes["strategy"] == "local"
    assert registry.counter("index.fallbacks").value == 1
    assert registry.counter("index.builds").value == 0
    assert any(
        span.name == "index.build_error"
        for root in engine.tracer.roots() for span in root.walk()
    )


def test_engine_skips_provably_unmatchable_paths():
    """The certificate proves R.movie can never match: the engine must
    short-circuit without building a snapshot or a match, and count it."""
    registry = MetricsRegistry()
    database = Database()
    database.register("bib", build_bib())
    engine = Engine(database, metrics=registry)

    absent = PathExpression.parse("R.movie")
    exists = engine.execute_plan(
        PlanBuilder.scan("bib").exists(absent).build()
    )
    assert exists.value == 0.0
    count = engine.execute_plan(PlanBuilder.scan("bib").count(absent).build())
    assert count.value == 0.0
    point = engine.execute_plan(
        PlanBuilder.scan("bib").point(absent, "B1").build()
    )
    assert point.value == 0.0
    dist = engine.execute_plan(QueryNode("dist", ScanNode("bib"), path=absent))
    assert dist.value == {0: 1.0}
    assert registry.counter("check.absint_skips").value == 4
    assert registry.counter("index.builds").value == 0
    assert exists.certificate.skippable
    assert exists.span.attributes["strategy"] == "absint"

    # Parity: with the proof off the indexed operator matches the path
    # and the run as written walks it; both agree on every constant.
    plain = Engine(database, absint=False)
    for run in (plain.execute_plan, plain.execute_as_written):
        assert run(PlanBuilder.scan("bib").exists(absent).build()).value == 0.0
        assert run(
            QueryNode("dist", ScanNode("bib"), path=absent)
        ).value == {0: 1.0}


def test_explain_shows_index_lowering():
    """EXPLAIN shows the statement as written and names the access
    method its path step will use — and did use."""
    interpreter = Interpreter(Database())
    interpreter.database.register("bib", build_bib())
    result = interpreter.execute("EXPLAIN EXISTS R.book.author IN bib")
    root = result.text.splitlines()[0]
    assert root.startswith("Query[exists R.book.author]")
    assert "strategy=indexed" in root

    analyzed = interpreter.execute(
        "EXPLAIN ANALYZE EXISTS R.book.author IN bib"
    )
    root = analyzed.text.splitlines()[0]
    assert root.startswith("engine.node.Query[exists R.book.author]")
    assert "strategy=indexed" in root
