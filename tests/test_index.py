"""repro.index: encoding, columnar matcher parity, caches, engine access.

The load-bearing contract is *parity*: every vectorized structure must
produce results identical to the walked evaluators it replaces.  The
randomized suites below hold that on 52 generated tree instances plus
DAG-shaped ones, and exercise the cache invalidation token, the
certificate-based skip of dead paths and the engine's runtime fallback.
"""

import random

import pytest

from repro.check.absint import certify_plan
from repro.check.dataguide import DataGuideCache
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
    HAS_NUMPY,
    ColumnarInstance,
    IndexCache,
    IntervalEncoding,
    marginalize_opf,
    marginalize_python,
    match_path_indexed,
)
from repro.index.columnar import _MATCH_MEMO_CAP, _match_python
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.pxql import Interpreter, parse
from repro.semistructured.paths import PathExpression, match_path
from repro.storage.database import Database
from repro.storage.derived import cache_token
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
# Interval encoding
# ----------------------------------------------------------------------
class TestIntervalEncoding:
    def test_tree_invariants(self):
        workload = generate_workload(SPECS[1])
        graph = workload.instance.weak.graph()
        root = workload.instance.root
        encoding = IntervalEncoding.from_graph(graph, root)
        assert encoding is not None
        assert len(encoding) == len(workload.instance)
        # pre is a permutation; the root spans the whole preorder range.
        assert sorted(encoding.pre) == list(range(len(encoding)))
        assert encoding.interval(root) == (0, len(encoding))
        assert encoding.depth(root) == 0
        for src, dst, _label in graph.edges():
            assert encoding.depth(dst) == encoding.depth(src) + 1
            assert encoding.is_ancestor(src, dst)
            assert not encoding.is_ancestor(dst, src)
            assert encoding.is_ancestor_or_self(src, dst)

    def test_ancestorship_matches_graph_reachability(self):
        pi = build_bib()
        graph = pi.weak.graph()
        encoding = IntervalEncoding.from_graph(graph, "R")
        assert encoding is not None
        # Transitive ancestorship across two edges, plus reflexivity.
        assert encoding.is_ancestor("R", "A1")
        assert encoding.is_ancestor("B2", "A2")
        assert not encoding.is_ancestor("B1", "A2")
        assert not encoding.is_ancestor("A1", "A1")
        assert encoding.is_ancestor_or_self("A1", "A1")

    def test_dag_yields_none(self):
        pi = random_dag_instance(random.Random(0))
        assert IntervalEncoding.from_graph(pi.weak.graph(), pi.root) is None


# ----------------------------------------------------------------------
# Columnar snapshots
# ----------------------------------------------------------------------
class TestColumnarInstance:
    def test_tree_roundtrip(self):
        workload = generate_workload(SPECS[2])
        pi = workload.instance
        graph = pi.weak.graph()
        col = ColumnarInstance.from_instance(pi)
        assert col.is_tree
        assert col.root == pi.root
        assert len(col) == len(pi)
        assert set(col.oids) == set(graph.vertices)
        assert col.num_edges == sum(1 for _ in graph.edges())
        parent_map = col.parent_map()
        assert pi.root not in parent_map
        for src, dst, _label in graph.edges():
            assert parent_map[dst] == src

    def test_reach_follows_parent_pointers(self):
        from repro.queries.chain import chain_probability

        pi = build_bib()
        col = ColumnarInstance.from_instance(pi)
        assert 0.0 < col.reach(pi, "A2") < 1.0
        assert col.reach(pi, "A2") == chain_probability(pi, ["R", "B2", "A2"])
        assert col.reach(pi, "R") == 1.0
        assert col.reach(pi, "nobody") == 0.0

    def test_dag_snapshot(self):
        pi = random_dag_instance(random.Random(1))
        col = ColumnarInstance.from_instance(pi)
        assert not col.is_tree
        assert col.encoding is None
        assert len(col) == len(pi)


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
        expected = match_path(graph, path)
        _assert_same_match(match_path_indexed(col, path, memo=False), expected)
        _assert_same_match(
            _match_python(col, path, col.index_of[path.root]), expected
        )


@pytest.mark.parametrize("seed", range(6))
def test_match_parity_dag(seed):
    """DAG snapshots take the generic edge-sweep path; parity must hold."""
    pi = random_dag_instance(random.Random(seed))
    graph = pi.weak.graph()
    col = ColumnarInstance.from_instance(pi)
    assert not col.is_tree
    for text in ("r.a", "r.a.b", "r.a.b.nope", "r"):
        path = PathExpression.parse(text)
        expected = match_path(graph, path)
        _assert_same_match(match_path_indexed(col, path, memo=False), expected)
        _assert_same_match(
            _match_python(col, path, col.index_of[path.root]), expected
        )


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
# Vectorized OPF marginalization
# ----------------------------------------------------------------------
def _random_opf(rng, children):
    subsets = {
        frozenset(rng.sample(children, rng.randint(0, len(children) - 1)))
        for _ in range(8)
    }
    weights = {subset: rng.uniform(0.05, 1.0) for subset in subsets}
    total = sum(weights.values())
    return TabularOPF({s: w / total for s, w in weights.items()})


@pytest.mark.parametrize("seed", range(12))
def test_marginalize_parity(seed, monkeypatch):
    # Tables this small take the sparse loop: hold the dense one to it.
    monkeypatch.setattr("repro.index.opf.MIN_DENSE_CELLS", 0)
    rng = random.Random(seed)
    children = [f"c{i}" for i in range(6)]
    opf = _random_opf(rng, children)
    kept = sorted(rng.sample(children, 4))
    epsilon = {
        c: 1.0 if rng.random() < 0.3 else rng.uniform(0.05, 0.95)
        for c in children
    }
    fast = marginalize_opf(opf, kept, epsilon)
    reference = marginalize_python(opf, kept, epsilon)
    assert set(fast) == set(reference)
    for key, value in reference.items():
        assert fast[key] == pytest.approx(value, abs=1e-12)


def test_marginalize_takes_the_dense_path_only_where_it_wins(monkeypatch):
    """Below ``MIN_DENSE_CELLS`` the sparse loop runs; from there up
    the dense matrix does — with the same table either way."""
    import repro.index.opf as opf_module

    dense_calls = []
    real = opf_module._marginalize_numpy

    def counting(support, *args):
        dense_calls.append(len(support))
        return real(support, *args)

    monkeypatch.setattr(opf_module, "_marginalize_numpy", counting)
    rng = random.Random(4)
    children = [f"c{i}" for i in range(8)]
    small = _random_opf(rng, children[:4])                  # 8 entries
    large = IndependentOPF(
        {child: rng.uniform(0.2, 0.8) for child in children}
    ).to_tabular()                                          # 256 entries
    epsilon = {child: rng.uniform(0.05, 0.95) for child in children}
    for opf, kept, dense in ((small, children[:4], False),
                             (large, children[:2], True),
                             (large, children, True)):
        del dense_calls[:]
        fast = marginalize_opf(opf, kept, epsilon)
        assert bool(dense_calls) == (dense and HAS_NUMPY)
        reference = marginalize_python(opf, kept, epsilon)
        assert set(fast) == set(reference)
        for key, value in reference.items():
            assert fast[key] == pytest.approx(value, abs=1e-12)


def test_marginalize_all_certain_short_circuits():
    """With every kept child certain there is nothing to enumerate."""
    rng = random.Random(99)
    children = [f"c{i}" for i in range(4)]
    opf = _random_opf(rng, children)
    kept = children[:3]
    epsilon = {c: 1.0 for c in children}
    assert marginalize_opf(opf, kept, epsilon) == pytest.approx(
        marginalize_python(opf, kept, epsilon)
    )


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
        guides = DataGuideCache()
        first = guides.get(catalog, "bib", 4)
        assert guides.get(catalog, "bib", 4) is first
        assert guides.get(catalog, "bib", 5) is not first

    def test_dataguide_cache_invalidated_by_generation(self):
        """Regression: a same-version catalog mutated by another process
        (generation bump) must not serve a stale dataguide."""
        catalog = _GenerationCatalog(build_bib())
        guides = DataGuideCache()
        first = guides.get(catalog, "bib")
        assert guides.get(catalog, "bib") is first
        catalog.bumps += 1
        assert guides.get(catalog, "bib") is not first

    def test_index_cache_invalidated_by_generation(self):
        catalog = _GenerationCatalog(build_bib())
        cache = IndexCache()
        first = cache.get(catalog, "bib")
        assert cache.get(catalog, "bib") is first
        catalog.bumps += 1
        assert cache.get(catalog, "bib") is not first


class TestIndexCache:
    def test_counters_and_rebuild_on_version_bump(self):
        registry = MetricsRegistry()
        database = Database()
        database.register("bib", build_bib())
        cache = IndexCache()
        with use_registry(registry):
            first = cache.get(database, "bib")
            assert cache.get(database, "bib") is first
            database.register("bib", build_bib(), replace=True)
            rebuilt = cache.get(database, "bib")
        assert rebuilt is not first
        assert registry.counter("index.builds").value == 2
        assert registry.counter("index.hits").value == 1
        assert registry.counter("index.misses").value == 2

    def test_invalidate(self):
        database = Database()
        database.register("bib", build_bib())
        cache = IndexCache()
        first = cache.get(database, "bib")
        cache.invalidate("bib")
        assert len(cache) == 0
        assert cache.get(database, "bib") is not first


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


def _skippable(database, path, guides=None):
    plan = PlanBuilder.scan("bib").exists(PathExpression.parse(path)).build()
    return certify_plan(plan, database, guides).skippable


class TestDeadPathProof:
    def test_proof_only_from_a_covering_guide(self):
        database = Database()
        database.register("bib", build_bib())
        assert not _skippable(database, "R.book")
        assert _skippable(database, "R.movie")
        # Rooted at a non-root object: the guide cannot prove anything.
        assert not _skippable(database, "B1.author")

    def test_proof_only_from_an_untruncated_guide(self):
        database = Database()
        database.register("bib", _zero_mass_bib())
        assert match_path(
            database.get("bib").weak.graph(), PathExpression.parse("R.book.isbn")
        ).matched == {"I2"}
        assert _skippable(database, "R.book.isbn")
        truncated = DataGuideCache(max_paths=1)
        assert truncated.get(database, "bib").truncated
        assert not _skippable(database, "R.book.isbn", truncated)

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
    # whatever the access method.
    chain = [oid]
    while chain[-1] != path.root:
        (parent,) = graph.parents(chain[-1])
        chain.append(parent)
    rerooted = PathExpression(chain[-2], path.labels[1:])

    engine = _engine_over(workload.instance)
    statements = [
        *_path_statements(path, oid).items(),
        *_path_statements(rerooted, oid).items(),
    ]
    for kind, text in statements:
        plan = plan_statement(parse(text))
        indexed = engine.execute_plan(plan)
        assert indexed.stats.strategy == "indexed", kind
        assert indexed.stats.extra["index"] == "columnar", kind
        assert indexed.plan == plan, kind
        walked = engine.execute_as_written(plan)
        assert walked.stats.strategy == "local", kind
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
    assert indexed.stats.strategy == "indexed"
    assert indexed.plan == plan
    walked = engine.execute_as_written(plan)
    assert walked.stats.strategy == "local"
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
        assert execution.stats.strategy == "bayes", kind
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
    assert execution.stats.strategy == "local"
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
    assert exists.stats.strategy == "absint"

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
    assert root.startswith("Query[exists R.book.author]")
    assert "strategy=indexed" in root


def test_numpy_flag_is_consistent():
    """HAS_NUMPY reflects whether the import actually succeeded."""
    from repro.index import np_compat

    assert HAS_NUMPY == (np_compat.numpy is not None)
    if HAS_NUMPY:
        col = ColumnarInstance.from_instance(build_bib())
        assert col._pre_np is not None
