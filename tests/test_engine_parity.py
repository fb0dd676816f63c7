"""Randomized parity: the engine path must equal the operators it plans.

Every rewrite rule and the full optimizer are checked against direct
calls to the Section 5/6 operators (``tests.helpers.evaluate_directly``)
on generated instances (Section 7.1 workloads); probabilities must
agree within 1e-9.  The degraded retry (every accelerator bypassed) and,
on these depth-2 specs, the enumerated semantics are held to the same
answers.  The
suite runs on 52 generated instances (13 seeds x 2 labelings x 2 OPF
representations) plus hand-built disjoint-OID instances for the product
cases (generated instances share the ``o0, o1, ...`` namespace, so they
cannot legally be multiplied together).
"""

import random
from dataclasses import replace

import pytest

from repro.core.builder import InstanceBuilder
from repro.engine import (
    Engine,
    PlanBuilder,
    ProductNode,
    ScanNode,
    collapse_adjacent_projections,
    push_selection_below_projection,
)
from repro.pxql import Interpreter, ast, parse
from repro.queries.engine import QueryEngine
from repro.semistructured.paths import match_path
from repro.storage.database import Database
from repro.workloads.generator import (
    WorkloadSpec,
    generate_workload,
    random_projection_path,
    random_selection_target,
)
from tests.helpers import evaluate_directly

TOL = 1e-9

SPECS = [
    WorkloadSpec(depth=2, branching=2, labeling=labeling, seed=seed,
                 opf_kind=opf_kind)
    for labeling in ("SL", "FR")
    for opf_kind in ("tabular", "independent")
    for seed in range(13)
]
assert len(SPECS) >= 50

SMALL_SPECS = SPECS[::5]


def _spec_id(spec):
    return f"{spec.labeling}-{spec.opf_kind}-s{spec.seed}"


def _path_oid(workload, path, rng):
    graph = workload.instance.weak.graph()
    return rng.choice(sorted(match_path(graph, path).matched))


def _point(pi, path, oid):
    return QueryEngine(pi, strategy="local").point(path, oid)


# ----------------------------------------------------------------------
# Full-path parity: the interpreter vs direct operator calls
# ----------------------------------------------------------------------
def _parity_script(spec):
    """``(workload, instance-producing statements, numeric probes)``."""
    workload = generate_workload(spec)
    rng = random.Random(spec.seed + 1000)
    path = random_projection_path(workload, rng)
    path_oid = _path_oid(workload, path, rng)
    sel_path, sel_oid = random_selection_target(workload, rng)
    graph = workload.instance.weak.graph()
    child = sorted(graph.children(workload.instance.root))[0]
    statements = [
        f"PROJECT {path} FROM base AS p",
        f"SELECT {sel_path} = {sel_oid} FROM base AS s",
        # The pipeline: selecting on the projection's own path is
        # exactly the pattern the pushdown rule rewrites (via lineage).
        f"SELECT {path} = {path_oid} FROM p AS ps",
    ]
    probes = [
        f"POINT {path} : {path_oid} IN base",
        f"POINT {path} : {path_oid} IN p",
        f"POINT {path} : {path_oid} IN ps",
        f"EXISTS {path} IN base",
        f"EXISTS {sel_path} IN s",
        f"PROB {sel_oid} IN s",
        f"CHAIN {workload.instance.root}.{child} IN base",
        f"COUNT {path} IN base",
    ]
    return workload, statements, probes


def _assert_parity(engine, oracle, statements, probes):
    for text in statements:
        expected = evaluate_directly(oracle, text)
        assert engine.execute(text).value.objects == expected.objects, text
    for text in probes:
        expected = evaluate_directly(oracle, text)
        assert engine.execute(text).value == pytest.approx(
            expected, abs=TOL
        ), text


@pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
def test_statement_parity(spec):
    workload, statements, probes = _parity_script(spec)
    oracle = Database()
    engine = Interpreter(Database())
    for database in (oracle, engine.database):
        database.register("base", workload.instance.copy())
    # Runtime soundness: every engine execution is checked against its
    # absint certificate; the violation counter must stay at zero.
    engine.engine.absint_verify = True

    _assert_parity(engine, oracle, statements, probes)

    assert engine.metrics.counter("check.absint_violations").value == 0
    assert engine.fallbacks == []


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=_spec_id)
def test_degraded_parity(spec, monkeypatch):
    """With the prepare step broken, every statement is answered by the
    retry on its plan as written — same answers, no accelerator touched."""
    workload, statements, probes = _parity_script(spec)
    oracle = Database()
    engine = Interpreter(Database())
    for database in (oracle, engine.database):
        database.register("base", workload.instance.copy())
    registered = []
    register = engine.database.register

    def recording_register(name, *args, **kwargs):
        registered.append(name)
        return register(name, *args, **kwargs)

    monkeypatch.setattr(engine.database, "register", recording_register)

    def explode(plan, generation):
        raise RuntimeError("prepare exploded")

    monkeypatch.setattr(engine.engine, "_prepare", explode)
    indexed = []
    apply_indexed = engine.engine._apply_indexed

    def recording_apply_indexed(node, *args, **kwargs):
        indexed.append(node)
        return apply_indexed(node, *args, **kwargs)

    monkeypatch.setattr(engine.engine, "_apply_indexed", recording_apply_indexed)

    _assert_parity(engine, oracle, statements, probes)

    count = len(statements) + len(probes)
    assert len(engine.fallbacks) == count
    assert engine.metrics.counter("resilience.fallbacks").value == count
    assert engine.metrics.counter("pxql.errors").value == 0
    # The retry is the engine's own executor, so what it keeps is kept
    # by construction: one execution per statement, lineage recorded.
    assert engine.metrics.counter("engine.executions").value == count
    assert registered == ["p", "s", "ps"]
    assert all(engine.engine._lineage_plan(name) is not None
               for name in registered)
    assert len(engine.engine.result_cache) == 0
    # The retry as written never asks for a snapshot.  (The catalog's
    # shared index cache may hold one all the same: the check pass ahead
    # of each statement locates PROJECT / SELECT paths on it.)
    assert indexed == []


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=_spec_id)
def test_enumeration_oracle(spec):
    """``POINT`` / ``EXISTS`` also equal the enumerated semantics (every
    compatible world, Theorem 1) — on the base instance and on derived
    ones.  Each probe runs twice and the *repeat* — the statement tier's
    answer — is the one compared, before and after its source is
    re-registered with a different instance."""
    workload, statements, probes = _parity_script(spec)
    engine = Interpreter(Database())
    engine.database.register("base", workload.instance.copy())
    for text in statements:
        engine.execute(text)
    other = generate_workload(replace(spec, seed=spec.seed + 50)).instance
    for text in probes:
        stmt = parse(text)
        if not isinstance(stmt, (ast.PointStatement, ast.ExistsStatement)):
            continue
        for state in ("as registered", "source re-registered"):
            oracle = QueryEngine(
                engine.database.get(stmt.source), strategy="enumerate"
            )
            worlds = (
                oracle.point(stmt.path, stmt.oid)
                if isinstance(stmt, ast.PointStatement)
                else oracle.exists(stmt.path)
            )
            engine.execute(text)
            hits = engine.cache_stats["statements"]["hits"]
            assert engine.execute(text).value == pytest.approx(
                worlds, abs=TOL
            ), (text, state)
            assert engine.cache_stats["statements"]["hits"] == hits + 1
            engine.database.register(stmt.source, other.copy(), replace=True)


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=_spec_id)
def test_optimizer_on_off_parity(spec):
    """The optimized plan equals the plan as written, node for node."""
    workload = generate_workload(spec)
    rng = random.Random(spec.seed + 2000)
    path = random_projection_path(workload, rng)
    oid = _path_oid(workload, path, rng)

    database = Database()
    database.register("base", workload.instance)
    raw = Engine(database, optimizer=False, caching=False)
    optimized = Engine(database, optimizer=True, caching=False)

    pipeline = (
        PlanBuilder.scan("base").project(path).project(path)
        .select(path, oid).build()
    )
    a = raw.execute_plan(pipeline)
    b = optimized.execute_plan(pipeline)
    assert b.applied_rules  # the rewrite actually fired
    assert a.value.objects == b.value.objects
    assert b.condition_probability == pytest.approx(
        a.condition_probability, abs=TOL
    )
    assert _point(b.value, path, oid) == pytest.approx(
        _point(a.value, path, oid), abs=TOL
    )

    query = PlanBuilder.scan("base").project(path).point(path, oid).build()
    assert optimized.execute_plan(query).value == pytest.approx(
        raw.execute_plan(query).value, abs=TOL
    )


# ----------------------------------------------------------------------
# Rule-level parity: each rewrite in isolation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", SMALL_SPECS, ids=_spec_id)
def test_collapse_rule_parity(spec):
    workload = generate_workload(spec)
    rng = random.Random(spec.seed + 3000)
    path = random_projection_path(workload, rng)
    oid = _path_oid(workload, path, rng)

    database = Database()
    database.register("base", workload.instance)
    engine = Engine(database, optimizer=False, caching=False)

    raw = PlanBuilder.scan("base").project(path).project(path).build()
    rewritten = collapse_adjacent_projections(raw, None)
    assert rewritten is not None
    a = engine.execute_plan(raw).value
    b = engine.execute_plan(rewritten).value
    assert a.objects == b.objects
    assert _point(a, path, oid) == pytest.approx(_point(b, path, oid), abs=TOL)


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=_spec_id)
def test_pushdown_rule_parity(spec):
    workload = generate_workload(spec)
    rng = random.Random(spec.seed + 4000)
    path = random_projection_path(workload, rng)
    oid = _path_oid(workload, path, rng)

    database = Database()
    database.register("base", workload.instance)
    engine = Engine(database, optimizer=False, caching=False)

    raw = PlanBuilder.scan("base").project(path).select(path, oid).build()
    rewritten = push_selection_below_projection(raw, None)
    assert rewritten is not None
    a = engine.execute_plan(raw)
    b = engine.execute_plan(rewritten)
    assert a.value.objects == b.value.objects
    assert b.condition_probability == pytest.approx(
        a.condition_probability, abs=TOL
    )
    assert _point(a.value, path, oid) == pytest.approx(
        _point(b.value, path, oid), abs=TOL
    )


def _disjoint_pair():
    """Two small instances with disjoint OID namespaces (product-legal)."""
    left = InstanceBuilder("L")
    left.children("L", "x", ["a1", "a2"])
    left.opf("L", {("a1",): 0.3, ("a2",): 0.25, ("a1", "a2"): 0.3, (): 0.15})
    left.leaf("a1", "t", ["u", "v"], {"u": 0.7, "v": 0.3})
    left.leaf("a2", "t", ["u", "v"], {"u": 0.4, "v": 0.6})
    right = InstanceBuilder("M")
    right.children("M", "y", ["b1"])
    right.opf("M", {("b1",): 0.8, (): 0.2})
    right.leaf("b1", "t", ["u", "v"], {"u": 0.5, "v": 0.5})
    return left.build(), right.build()


class TestProductParity:
    def test_reorder_rule_parity(self):
        database = Database()
        left, right = _disjoint_pair()
        database.register("l", left)    # 3 objects
        database.register("r", right)   # 2 objects
        engine = Engine(database, optimizer=False, caching=False)

        raw = ProductNode(ScanNode("l"), ScanNode("r"), "root")
        from repro.engine import reorder_product_by_size

        rewritten = reorder_product_by_size(raw, engine.cost)
        assert rewritten is not None
        a = engine.execute_plan(raw).value
        b = engine.execute_plan(rewritten).value
        assert a.objects == b.objects
        assert a.root == b.root == "root"
        for oid in ("a1", "a2", "b1"):
            pa = QueryEngine(a, strategy="bayes").object_exists(oid)
            pb = QueryEngine(b, strategy="bayes").object_exists(oid)
            assert pa == pytest.approx(pb, abs=TOL)

    def test_product_statement_parity(self):
        left, right = _disjoint_pair()
        oracle = Database()
        engine = Interpreter(Database())
        for database in (oracle, engine.database):
            database.register("l", left.copy())
            database.register("r", right.copy())

        _assert_parity(
            engine, oracle,
            ["PRODUCT l, r ROOT lr AS prod"],
            ["PROB a1 IN prod", "PROB b1 IN prod",
             "EXISTS lr.x IN prod", "COUNT lr.y IN prod"],
        )

    def test_optimizer_reorders_product_statement_soundly(self):
        left, right = _disjoint_pair()
        database = Database()
        database.register("l", left)
        database.register("r", right)
        raw = Engine(database, optimizer=False, caching=False)
        optimized = Engine(database, optimizer=True, caching=False)

        plan = ProductNode(ScanNode("l"), ScanNode("r"))  # bigger first
        a = raw.execute_plan(plan)
        b = optimized.execute_plan(plan)
        assert "reorder_product_by_size" in b.applied_rules
        assert a.value.root == b.value.root  # default root id is pinned
        assert a.value.objects == b.value.objects
        pa = QueryEngine(a.value, strategy="bayes").object_exists("a1")
        pb = QueryEngine(b.value, strategy="bayes").object_exists("a1")
        assert pa == pytest.approx(pb, abs=TOL)
