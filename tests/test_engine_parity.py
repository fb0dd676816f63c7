"""Randomized parity: the engine path must equal the operators it plans.

The engine runs every plan as written; its answers are checked against
direct calls to the Section 5/6 operators
(``tests.helpers.evaluate_directly``) on generated instances (Section
7.1 workloads); probabilities must agree within 1e-9.  A derived name
is read as registered, so the algebraic identities that make that safe
— a saved projection answers what its lineage over the base would —
are checked on the same instances.  The degraded retry (every accelerator bypassed) and, on
these depth-2 specs, the enumerated semantics — of each instance, and
for a derived one of its base — are held to the same answers.  The
suite runs on 52 generated instances (13 seeds x 2 labelings x 2 OPF
representations) plus hand-built disjoint-OID instances for the product
cases (generated instances share the ``o0, o1, ...`` namespace, so they
cannot legally be multiplied together).
"""

import random
from dataclasses import replace

import pytest

from repro.core.builder import InstanceBuilder
from repro.algebra.product import cartesian_product
from repro.algebra.projection_prob import ancestor_projection_global
from repro.algebra.selection import ObjectCondition
from repro.engine import (
    Engine,
    PlanBuilder,
    ProductNode,
    ScanNode,
    plan_statement,
)
from repro.pxql import Interpreter, ast, parse
from repro.queries.engine import QueryEngine
from repro.resilience.breaker import CircuitBreaker
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
        # A selection over a derived name, on the projection's own path:
        # read from ``p`` as registered, never re-derived from ``base``.
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
    """With the certificate step broken, every statement is answered by
    the retry on its plan as written — same answers, no accelerator
    touched."""
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
        raise RuntimeError("certify exploded")

    monkeypatch.setattr(engine.engine, "_certify", explode)
    # Each answered retry counts against the breaker; keep it closed so
    # every statement takes the retry (tripping it is
    # test_resilience.py's).
    engine.engine.breaker = CircuitBreaker(failure_threshold=100)
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
    # by construction: one execution per statement, each result
    # registered.
    assert engine.metrics.counter("engine.executions").value == count
    assert registered == ["p", "s", "ps"]
    # The retry as written never asks for a snapshot.  (The catalog's
    # shared index cache may hold one all the same: the check pass ahead
    # of each statement locates PROJECT / SELECT paths on it.)
    assert indexed == []


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=_spec_id)
def test_enumeration_oracle(spec):
    """``POINT`` / ``EXISTS`` also equal the enumerated semantics (every
    compatible world, Theorem 1) — on the base instance and on derived
    ones, and for a derived one also the global projection / selection
    of its base.  Each probe runs twice and the *repeat* — the statement tier's
    answer — is the one compared, before and after its source is
    re-registered with a different instance."""
    workload, statements, probes = _parity_script(spec)
    engine = Interpreter(Database())
    engine.database.register("base", workload.instance.copy())
    for text in statements:
        engine.execute(text)
    # ``p`` and ``ps`` against the base's global semantics: project every
    # enumerated world of ``base`` and group (Definition 5.3), then keep
    # the worlds the condition holds in and renormalise (Definition 5.6,
    # ``select_global`` over an interpretation).
    selection = plan_statement(parse(statements[2]))
    path, oid = selection.path, selection.oid
    projected = ancestor_projection_global(workload.instance, path)
    selected = projected.condition(ObjectCondition(path, oid).satisfied_by)
    for name, worlds in (("p", projected), ("ps", selected)):
        point = f"POINT {path} : {oid} IN {name}"
        assert engine.execute(point).value == pytest.approx(
            worlds.prob_object_at_path(path, oid), abs=TOL
        ), point
        exists = f"EXISTS {path} IN {name}"
        assert engine.execute(exists).value == pytest.approx(
            worlds.prob_path_nonempty(path), abs=TOL
        ), exists
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
    """A multi-operator pipeline answers the same with the accelerators
    on (``execute_plan``: certificate, snapshot access for the scanned
    projection) and off (``execute_as_written``), and both run the plan
    as written."""
    workload = generate_workload(spec)
    rng = random.Random(spec.seed + 2000)
    path = random_projection_path(workload, rng)
    oid = _path_oid(workload, path, rng)

    database = Database()
    database.register("base", workload.instance)
    engine = Engine(database)

    pipeline = (
        PlanBuilder.scan("base").project(path).project(path)
        .select(path, oid).build()
    )
    a = engine.execute_as_written(pipeline)
    b = engine.execute_plan(pipeline)
    assert a.plan == b.plan == pipeline
    assert a.value.objects == b.value.objects
    assert b.condition_probability == pytest.approx(
        a.condition_probability, abs=TOL
    )
    assert _point(b.value, path, oid) == pytest.approx(
        _point(a.value, path, oid), abs=TOL
    )

    query = PlanBuilder.scan("base").project(path).point(path, oid).build()
    assert engine.execute_plan(query).value == pytest.approx(
        engine.execute_as_written(query).value, abs=TOL
    )


# ----------------------------------------------------------------------
# Derived names: a saved projection answers what its lineage would
# ----------------------------------------------------------------------
def _projected(spec, salt):
    """``(database, path, oid)``: ``base`` and ``p`` = its ancestor
    projection on a random accepted path, registered as computed."""
    workload = generate_workload(spec)
    rng = random.Random(spec.seed + salt)
    path = random_projection_path(workload, rng)
    oid = _path_oid(workload, path, rng)
    database = Database()
    database.register("base", workload.instance)
    engine = Engine(database)
    project = PlanBuilder.scan("base").project(path).build()
    database.register("p", engine.execute_plan(project).value)
    return database, path, oid


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=_spec_id)
def test_collapse_rule_parity(spec):
    """``Λ_p`` is idempotent: projecting the saved projection ``p`` on
    its own path equals projecting the base."""
    database, path, oid = _projected(spec, 3000)
    engine = Engine(database)
    again = PlanBuilder.scan("p").project(path).build()
    once = PlanBuilder.scan("base").project(path).build()
    a = engine.execute_plan(again).value
    b = engine.execute_plan(once).value
    assert a.objects == b.objects
    assert _point(a, path, oid) == pytest.approx(_point(b, path, oid), abs=TOL)


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=_spec_id)
def test_pushdown_rule_parity(spec):
    """``σ_{p=o}(Λ_p(I)) = Λ_p(σ_{p=o}(I))``: selecting on the saved
    projection ``p`` equals projecting the base's selection, with the
    same condition probability."""
    database, path, oid = _projected(spec, 4000)
    engine = Engine(database)
    over_view = PlanBuilder.scan("p").select(path, oid).build()
    over_base = (
        PlanBuilder.scan("base").select(path, oid).project(path).build()
    )
    a = engine.execute_plan(over_view)
    b = engine.execute_plan(over_base)
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
        """The product commutes (Definition 5.7 merges the two roots
        symmetrically): ``l x r`` and ``r x l`` under one root id are
        the same instance, so the engine has no reason to reorder."""
        database = Database()
        left, right = _disjoint_pair()
        database.register("l", left)    # 3 objects
        database.register("r", right)   # 2 objects
        engine = Engine(database)

        a = engine.execute_plan(
            ProductNode(ScanNode("l"), ScanNode("r"), "root")
        ).value
        b = engine.execute_plan(
            ProductNode(ScanNode("r"), ScanNode("l"), "root")
        ).value
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

    def test_product_runs_as_written(self):
        """``EXPLAIN`` renders the operands in written order — the larger
        on the left stays on the left — and the statement's result is
        ``cartesian_product`` of the two as written: same objects, same
        OPFs, same default root id."""
        left, right = _disjoint_pair()
        interpreter = Interpreter(Database())
        interpreter.database.register("l", left)     # 3 objects
        interpreter.database.register("r", right)    # 2 objects

        lines = interpreter.execute("EXPLAIN PRODUCT l, r").text.splitlines()
        assert lines[0].startswith("Product[auto-root]")
        assert lines[1].startswith("├─ Scan(l)")
        assert lines[2].startswith("└─ Scan(r)")

        served = interpreter.execute("PRODUCT l, r AS p").value
        direct = cartesian_product(
            interpreter.database.get("l"), interpreter.database.get("r")
        )
        assert served.root == direct.root == "LxM"
        assert served.objects == direct.objects
        for oid in sorted(direct.objects):
            opf = direct.opf(oid)
            if opf is None:
                assert served.opf(oid) is None, oid
            else:
                assert dict(served.opf(oid).support()) == dict(opf.support()), oid
