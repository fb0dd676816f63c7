"""Abstract interpretation of plans (repro.check.absint).

Three layers of coverage:

* unit tests for the interval lattice (:class:`ProbInterval`,
  :class:`CardInterval`) and the certificate machinery
  (:func:`certify_plan`, :func:`verify_execution`);
* diagnostics through the plan pass — ``PX260`` (provably empty),
  ``PX261``/``PX263`` (constant probability guards), ``PX262`` (zero
  condition), and their suppression rules;
* soundness over the generated corpus: on every Section 7.1 workload
  the exact engine answer must lie inside the inferred interval, the
  runtime verifier must observe zero violations, and certified-empty
  plans must short-circuit without changing any answer (checked against
  both the skipping engine and the naive interpreter).
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.absint import (
    CardInterval,
    ProbInterval,
    certify_plan,
    verify_execution,
)
from repro.check import check_plan
from repro.core.builder import InstanceBuilder
from repro.engine.executor import Engine
from repro.engine.plan import PlanBuilder, QueryNode, ScanNode
from repro.obs.metrics import MetricsRegistry
from repro.pxql import Interpreter
from repro.semistructured.paths import PathExpression
from repro.storage.database import Database
from repro.workloads.generator import (
    WorkloadSpec,
    generate_workload,
    random_projection_path,
)
from tests.helpers import evaluate_directly

TOL = 1e-9

#: Same corpus as the engine parity suite (13 seeds x 2 labelings x 2
#: OPF representations); the intervals must be sound on all of it.
SPECS = [
    WorkloadSpec(depth=2, branching=2, labeling=labeling, seed=seed,
                 opf_kind=opf_kind)
    for labeling in ("SL", "FR")
    for opf_kind in ("tabular", "independent")
    for seed in range(13)
]

SMALL_SPECS = SPECS[::5]

KINDS = ("exists", "count", "point", "dist")

#: The workload generator never emits this label: appending it to any
#: live path yields a provably dead path (dataguide-certified empty).
DEAD_LABEL = "never_a_label"


def _spec_id(spec):
    return f"{spec.labeling}-{spec.opf_kind}-s{spec.seed}"


def build_bib():
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


def build_zero():
    """An instance with a structurally present but zero-probability child."""
    b = InstanceBuilder("R")
    b.children("R", "x", ["a", "b"])
    b.opf("R", {("a",): 1.0, ("a", "b"): 0.0})
    b.leaf("a", "t", ["v"], {"v": 1.0})
    b.leaf("b", "t", None, {"v": 1.0})
    return b.build()


@pytest.fixture
def database():
    db = Database()
    db.register("bib", build_bib())
    return db


def codes(diagnostics):
    return [d.code for d in diagnostics]


def _engine(database, **kwargs):
    kwargs.setdefault("metrics", MetricsRegistry())
    return Engine(database, **kwargs)


def _query_plan(kind, name, path, oid=None):
    if kind == "point":
        return QueryNode("point", ScanNode(name), path=path, oid=oid)
    return QueryNode(kind, ScanNode(name), path=path)


def _scalar_answer(kind, value):
    """The single number an interval certificate bounds for each kind."""
    if kind == "dist":
        return 1.0 - value.get(0, 0.0)
    return float(value)


def _workload_targets(spec):
    workload = generate_workload(spec)
    rng = random.Random(spec.seed + 7000)
    path = random_projection_path(workload, rng)
    from repro.semistructured.paths import match_path

    graph = workload.instance.weak.graph()
    oid = rng.choice(sorted(match_path(graph, path).matched))
    return workload, path, oid


# ----------------------------------------------------------------------
# Interval lattice
# ----------------------------------------------------------------------
class TestProbInterval:
    def test_point_and_top(self):
        assert ProbInterval.point(0.3) == ProbInterval(0.3, 0.3)
        assert ProbInterval.top() == ProbInterval(0.0, 1.0)
        assert ProbInterval.point(0.3).is_point
        assert not ProbInterval.top().is_point

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            ProbInterval(0.7, 0.2)
        with pytest.raises(ValueError):
            ProbInterval(-0.1, 0.5)

    def test_contains_with_tolerance(self):
        interval = ProbInterval(0.2, 0.4)
        assert interval.contains(0.3)
        assert not interval.contains(0.5)
        assert interval.contains(0.4 + 1e-9, tol=1e-6)

    def test_times_and_hull(self):
        a, b = ProbInterval(0.2, 0.5), ProbInterval(0.5, 1.0)
        assert a.times(b) == ProbInterval(0.1, 0.5)
        assert a.hull(b) == ProbInterval(0.2, 1.0)


class TestCardInterval:
    def test_exactly_and_top(self):
        assert CardInterval.exactly(3) == CardInterval(3, 3)
        assert CardInterval.top().hi is None
        assert CardInterval.exactly(3).is_exact

    def test_containment_with_open_upper_bound(self):
        assert CardInterval.top().contains(10 ** 9)
        assert not CardInterval(2, 5).contains(6)
        assert CardInterval(2, 5).contains(2)

    def test_plus_with_unbounded_side(self):
        assert CardInterval(1, 2).plus(CardInterval(3, 4)) == CardInterval(4, 6)
        assert CardInterval(1, 2).plus(CardInterval.top()).hi is None
        assert CardInterval(1, 2).plus(CardInterval(0, 0), shift=1) == \
            CardInterval(2, 3)


# ----------------------------------------------------------------------
# Certificates and PX26x diagnostics
# ----------------------------------------------------------------------
class TestCertificates:
    def test_facts_mirror_plan_walk(self, database):
        plan = PlanBuilder.scan("bib").project("R.book").exists("R.book")
        plan = plan.build()
        certificate = certify_plan(plan, database)
        from repro.engine.plan import walk

        assert [f.label for f in certificate.facts] == \
            [node.label() for node in walk(plan)]
        assert certificate.kind == "exists"
        assert certificate.root.kind == "query"

    def test_live_plan_is_not_empty(self, database):
        plan = QueryNode("exists", ScanNode("bib"),
                         path=PathExpression("R", ("book",)))
        certificate = certify_plan(plan, database)
        assert not certificate.empty
        assert not certificate.skippable
        # P(some book exists) is exactly 1 (every OPF tuple has a book);
        # the abstraction keeps the sound union bound [max p_i, sum p_i].
        lo, hi = certificate.result
        assert lo == pytest.approx(0.8) and hi == pytest.approx(1.0)

    def test_dead_path_is_provably_empty(self, database):
        plan = QueryNode("exists", ScanNode("bib"),
                         path=PathExpression("R", ("book", DEAD_LABEL)))
        certificate = certify_plan(plan, database)
        assert certificate.empty
        assert certificate.skippable
        assert certificate.result == (0.0, 0.0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_path_below_the_root_matches_nothing(self, kind):
        """A path starts at the instance root: one that names another
        object first (``B1.author`` over Figure 2) matches nothing, and
        execution always answers 0 — the checker says so (PX240) and
        certifies the interval (0, 0)."""
        from repro.paper import figure2_instance

        db = Database()
        db.register("fig2", figure2_instance())
        plan = _query_plan(kind, "fig2", PathExpression("B1", ("author",)),
                           oid="A1")
        assert certify_plan(plan, db).result == (0.0, 0.0)
        assert "PX240" in codes(check_plan(plan, db))
        text = {
            "exists": "EXISTS B1.author IN fig2",
            "count": "COUNT B1.author IN fig2",
            "point": "POINT B1.author : A1 IN fig2",
            "dist": "DIST B1.author IN fig2",
        }[kind]
        interpreter = Interpreter(db, check="warn")
        assert _scalar_answer(kind, interpreter.execute(text).value) == 0.0
        assert "PX240" in codes(interpreter.last_diagnostics)

    def test_px260_on_dead_query(self, database):
        plan = QueryNode("exists", ScanNode("bib"),
                         path=PathExpression("R", ("book", "movie")))
        found = codes(check_plan(plan, database))
        assert "PX260" in found

    def test_px261_always_true_guard(self, database):
        plan = PlanBuilder.scan("bib").select(
            "R.book", "B1", prob_op=">=", prob_bound=0.5).build()
        assert codes(check_plan(plan, database)) == ["PX261"]

    def test_px263_unsatisfiable_guard(self, database):
        plan = PlanBuilder.scan("bib").select(
            "R.book", "B1", prob_op=">=", prob_bound=0.9).build()
        assert codes(check_plan(plan, database)) == ["PX263"]

    def test_px262_zero_condition_direct(self):
        # CARD(author) IN [2, 2] lies inside B1's feasible child counts
        # [1, 2], but its OPF gives two authors no mass: only the
        # interval analysis finds the condition zero.
        b = InstanceBuilder("R")
        b.children("R", "book", ["B1"], card=(1, 1))
        b.opf("R", {("B1",): 1.0})
        b.children("B1", "author", ["A1", "A2"], card=(1, 2))
        b.opf("B1", {("A1",): 0.5, ("A2",): 0.5})
        b.leaf("A1", "name", ["x"], {"x": 1.0})
        b.leaf("A2", "name", ["x"], {"x": 1.0})
        db = Database()
        db.register("zero", b.build())
        plan = PlanBuilder.scan("zero").select(
            "R.book", "B1", card_label="author", card_bounds=(2, 2)).build()
        assert codes(check_plan(plan, db)) == ["PX262"]

    def test_px262_suppressed_behind_base_finding(self):
        # The base pass already reports the zero-probability selection
        # (PX220); the interval pass must not add a duplicate PX262.
        db = Database()
        db.register("zero", build_zero())
        plan = PlanBuilder.scan("zero").select("R.x", "b").build()
        assert codes(check_plan(plan, db)) == ["PX220"]


class TestVerifyExecution:
    def test_clean_execution_has_no_violations(self, database):
        plan = QueryNode("count", ScanNode("bib"),
                         path=PathExpression("R", ("book",)))
        engine = _engine(database)
        result = engine.execute_plan(plan)
        assert verify_execution(result.certificate, result.value,
                                result.span) == []

    def test_tampered_result_interval_is_flagged(self, database):
        plan = QueryNode("exists", ScanNode("bib"),
                         path=PathExpression("R", ("book",)))
        engine = _engine(database)
        result = engine.execute_plan(plan)
        bogus = dataclasses.replace(result.certificate, result=(0.0, 0.1))
        violations = verify_execution(bogus, result.value, result.span)
        assert violations and "outside certified" in violations[0]

    def test_shape_mismatch_skips_the_check(self, database):
        plan = QueryNode("exists", ScanNode("bib"),
                         path=PathExpression("R", ("book",)))
        engine = _engine(database)
        result = engine.execute_plan(plan)
        truncated = dataclasses.replace(
            result.certificate, facts=result.certificate.facts[:1])
        assert verify_execution(truncated, result.value, result.span) == []

    def test_engine_verify_counter_stays_zero(self, database):
        engine = _engine(database)
        for kind in KINDS:
            plan = _query_plan(kind, "bib", PathExpression("R", ("book",)),
                               oid="B1")
            result = engine.execute_plan(plan)
            assert result.violations == ()
        assert engine.metrics.counter("check.absint_violations").value == 0


# ----------------------------------------------------------------------
# Engine integration: short-circuit, cost hints, EXPLAIN rendering
# ----------------------------------------------------------------------
class TestEngineIntegration:
    def test_dead_plan_short_circuits(self, database):
        plan = QueryNode("count", ScanNode("bib"),
                         path=PathExpression("R", ("book", DEAD_LABEL)))
        engine = _engine(database)
        result = engine.execute_plan(plan)
        assert result.value == 0.0
        assert engine.metrics.counter("check.absint_skips").value == 1
        assert result.span.attributes["strategy"] == "absint"

    def test_absint_off_engine_never_skips(self, database):
        plan = QueryNode("count", ScanNode("bib"),
                         path=PathExpression("R", ("book", DEAD_LABEL)))
        engine = _engine(database, absint=False)
        result = engine.execute_plan(plan)
        assert result.value == 0.0
        assert result.certificate is None
        assert engine.metrics.counter("check.absint_skips").value == 0

    def test_dead_path_has_one_skip_site_with_index_on(self, database):
        # One proof, one skip: the certificate short-circuits the plan
        # before any access method is chosen, and the indexed operator
        # (which has no skip of its own) gives the same constant when
        # matched, as does the walk.
        dead = PathExpression("R", ("book", DEAD_LABEL))
        engine = _engine(database)
        matched = _engine(database, absint=False)
        for kind in KINDS:
            plan = _query_plan(kind, "bib", dead, oid="B1")
            result = engine.execute_plan(plan)
            assert result.certificate.skippable
            assert result.span.attributes["strategy"] == "absint"
            indexed = matched.execute_plan(plan)
            assert indexed.span.attributes["strategy"] == "indexed"
            assert indexed.value == result.value
            assert matched.execute_as_written(plan).value == result.value
        assert engine.metrics.counter("check.absint_skips").value == len(KINDS)
        assert engine.metrics.counter("index.builds").value == 0
        assert matched.metrics.counter("check.absint_skips").value == 0

    def test_explain_renders_intervals(self, database):
        plan = QueryNode("exists", ScanNode("bib"),
                         path=PathExpression("R", ("book",)))
        engine = _engine(database)
        text = engine.explain(plan)
        assert "est_rows=[" in text
        assert "prob=[" in text
        assert "absint: kind=exists" in text

    def test_explain_marks_provably_empty(self, database):
        plan = QueryNode("exists", ScanNode("bib"),
                         path=PathExpression("R", ("book", DEAD_LABEL)))
        engine = _engine(database)
        assert "provably empty" in engine.explain(plan)

    def test_explain_analyze_of_a_zero_edge_projection(self):
        # R.book.isbn matches only through B2, which has zero inclusion
        # probability: the projection is the bare root, as certified.
        from tests.test_check_properties import _zero_edge_instance

        interp = Interpreter(Database())
        interp.database.register("base", _zero_edge_instance())
        result = interp.execute("EXPLAIN ANALYZE PROJECT R.book.isbn FROM base")
        assert "absint violations: none" in result.text
        assert interp.metrics.counter("check.absint_violations").value == 0

    def test_explain_analyze_reports_verification(self):
        interp = Interpreter(Database())
        interp.database.register("bib", build_bib())
        result = interp.execute("EXPLAIN ANALYZE EXISTS R.book IN bib")
        assert "absint violations: none" in result.text
        assert interp.metrics.counter("check.absint_violations").value == 0


# ----------------------------------------------------------------------
# Corpus soundness: the exact answer always lies inside the interval
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
def test_corpus_answers_inside_certified_intervals(spec):
    workload, path, oid = _workload_targets(spec)
    database = Database()
    database.register("base", workload.instance)
    engine = _engine(database)
    for kind in KINDS:
        plan = _query_plan(kind, "base", path, oid=oid)
        result = engine.execute_plan(plan)
        assert result.violations == (), kind
        certificate = result.certificate
        assert certificate is not None
        lo, hi = certificate.result
        # The interval is about the statement, not the access method:
        # the indexed answer and the walked one both lie inside it.
        for run in (result, engine.execute_as_written(plan)):
            answer = _scalar_answer(kind, run.value)
            assert lo - TOL <= answer <= hi + TOL, (kind, run.span.attributes["strategy"])
    assert engine.metrics.counter("check.absint_violations").value == 0
    assert engine.metrics.counter("check.absint_errors").value == 0


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=_spec_id)
def test_dead_plan_parity_and_skip(spec):
    """PX260 short-circuits are answer-preserving on the corpus.

    The same dead-path queries run on an absint engine and a plain one
    (plus a direct ``QueryEngine`` call for ``EXISTS``); all answers must agree
    and the absint engine must actually have served them as skips.
    """
    workload, path, _oid = _workload_targets(spec)
    dead = dataclasses.replace(path, labels=path.labels + (DEAD_LABEL,))

    database = Database()
    database.register("base", workload.instance)
    on = _engine(database)
    off = _engine(database, absint=False)
    for kind in ("exists", "count", "dist"):
        plan = _query_plan(kind, "base", dead)
        assert on.execute_plan(plan).value == off.execute_plan(plan).value
    assert on.metrics.counter("check.absint_skips").value == 3
    assert off.metrics.counter("check.absint_skips").value == 0

    assert evaluate_directly(database, f"EXISTS {dead} IN base") == 0.0


@settings(deadline=None, max_examples=25)
@given(
    labeling=st.sampled_from(("SL", "FR")),
    opf_kind=st.sampled_from(("tabular", "independent")),
    seed=st.integers(min_value=0, max_value=10_000),
    kind=st.sampled_from(KINDS),
    as_written=st.booleans(),
)
def test_property_interval_soundness(labeling, opf_kind, seed, kind,
                                     as_written):
    """Property: on any generated workload, any supported query kind's
    exact answer lies inside the certified interval and the runtime
    verifier finds nothing to complain about."""
    spec = WorkloadSpec(depth=2, branching=2, labeling=labeling,
                        opf_kind=opf_kind, seed=seed)
    workload, path, oid = _workload_targets(spec)
    database = Database()
    database.register("base", workload.instance)
    engine = _engine(database)
    plan = _query_plan(kind, "base", path, oid=oid)
    result = engine.execute_plan(plan)
    assert result.violations == ()
    lo, hi = result.certificate.result
    run = engine.execute_as_written(plan) if as_written else result
    answer = _scalar_answer(kind, run.value)
    assert lo - TOL <= answer <= hi + TOL
    assert engine.metrics.counter("check.absint_violations").value == 0
