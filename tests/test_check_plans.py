"""Unit tests for the plan pass's findings (repro.check.absint) and the dataguide."""

import pytest

import repro.check.dataguide as dataguide
from repro.check.dataguide import build_dataguide, guide_of
from repro.check.diagnostics import (
    ERROR,
    INFO,
    WARNING,
    Diagnostic,
    DiagnosticReport,
    Span,
    sort_diagnostics,
)
from repro.check import check_plan
from repro.core.builder import InstanceBuilder
from repro.engine.plan import PlanBuilder, ProductNode, ScanNode
from repro.semistructured.paths import PathExpression
from repro.storage.database import Database


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


@pytest.fixture
def database():
    db = Database()
    db.register("bib", build_bib())
    return db


def codes(diagnostics):
    return [d.code for d in diagnostics]


class TestDataGuide:
    def test_paths_and_targets(self, database):
        guide = build_dataguide(database.get("bib"))
        labels = {entry.labels for entry in guide.paths()}
        assert labels == {(), ("book",), ("book", "author")}
        assert guide.targets(("book",)) == frozenset({"B1", "B2"})
        assert guide.targets(("book", "author")) == frozenset({"A1", "A2"})

    def test_tree_intervals_are_exact(self, database):
        guide = build_dataguide(database.get("bib"))
        entry = guide.entry(("book", "author"))
        assert entry.exact
        # A1 exists iff B1 chosen (0.8) and A1 then always chosen.
        assert entry.lower == pytest.approx(0.8)
        # union bound: P(A1) + P(A2) = 0.8 + 0.6*0.5
        assert entry.upper == pytest.approx(min(1.0, 0.8 + 0.3))

    def test_zero_probability_targets_pruned(self):
        b = InstanceBuilder("R")
        b.children("R", "x", ["a", "b"])
        b.opf("R", {("a",): 1.0, ("a", "b"): 0.0})
        b.leaf("a", "t", ["v"], {"v": 1.0})
        b.leaf("b", "t", None, {"v": 1.0})
        guide = build_dataguide(b.build())
        assert guide.targets(("x",)) == frozenset({"a"})

    def test_probe_suggests_continuations(self, database):
        guide = build_dataguide(database.get("bib"))
        length, continuations = guide.probe(("book", "movie"))
        assert length == 1
        assert "author" in continuations

    def test_cache_keys_on_version(self, database):
        """A guide is kept on its frozen instance: a re-registered name
        maps to a new instance with a guide of its own."""
        first = guide_of(database.get("bib"))
        assert guide_of(database.get("bib")) is first
        database.register("bib", build_bib(), replace=True)
        assert guide_of(database.get("bib")) is not first


class TestDiagnosticsFramework:
    def test_sort_severity_first(self):
        warning = Diagnostic(code="PX210", severity=WARNING, message="w")
        error = Diagnostic(code="PX220", severity=ERROR, message="e")
        info = Diagnostic(code="PX190", severity=INFO, message="i")
        assert codes(sort_diagnostics([info, warning, error])) == \
            ["PX220", "PX210", "PX190"]

    def test_report_gates(self):
        report = DiagnosticReport([
            Diagnostic(code="PX210", severity=WARNING, message="w"),
        ])
        assert not report.fails("error")
        assert report.fails("warning")
        assert not report.fails("never")

    def test_span_rendering(self):
        diagnostic = Diagnostic(code="PX310", severity=ERROR, message="bad",
                                span=Span(3, 7))
        assert "@3..7" in str(diagnostic)
        assert diagnostic.as_dict()["span"] == [3, 7]


class TestPlanChecker:
    def test_clean_plan_has_no_findings(self, database):
        plan = PlanBuilder.scan("bib").project("R.book.author").build()
        assert check_plan(plan, database) == []

    def test_unknown_scan(self, database):
        plan = PlanBuilder.scan("ghost").project("R.book").build()
        assert codes(check_plan(plan, database)) == ["PX201"]

    def test_never_match_projection_is_warning(self, database):
        plan = PlanBuilder.scan("bib").project("R.movie").build()
        [diagnostic] = check_plan(plan, database)
        assert diagnostic.code == "PX210"
        assert diagnostic.severity == WARNING
        assert "book" in (diagnostic.hint or "")

    def test_never_match_selection_is_error(self, database):
        plan = PlanBuilder.scan("bib").select("R.movie", "M1").build()
        assert ("PX220", ERROR) in [
            (d.code, d.severity) for d in check_plan(plan, database)
        ]

    def test_selection_of_pruned_target_is_error(self):
        db = Database()
        b = InstanceBuilder("R")
        b.children("R", "x", ["a", "b"])
        b.opf("R", {("a",): 1.0, ("a", "b"): 0.0})
        b.leaf("a", "t", ["v"], {"v": 1.0})
        b.leaf("b", "t", None, {"v": 1.0})
        db.register("zeroed", b.build())
        plan = PlanBuilder.scan("zeroed").select("R.x", "b").build()
        assert "PX220" in codes(check_plan(plan, db))

    def test_value_outside_domain(self, database):
        plan = PlanBuilder.scan("bib").select(
            "R.book.author", "A1", value="nobody"
        ).build()
        assert "PX222" in codes(check_plan(plan, database))

    def test_value_on_non_leaf(self, database):
        plan = PlanBuilder.scan("bib").select("R.book", "B1", value="x").build()
        assert "PX222" in codes(check_plan(plan, database))

    def test_card_contradiction(self, database):
        plan = PlanBuilder.scan("bib").select(
            "R.book", "B1", card_label="author", card_bounds=(5, 9)
        ).build()
        assert "PX223" in codes(check_plan(plan, database))

    def test_card_tautology(self, database):
        plan = PlanBuilder.scan("bib").select(
            "R.book", "B2", card_label="author", card_bounds=(0, 9)
        ).build()
        [diagnostic] = check_plan(plan, database)
        assert diagnostic.code == "PX224"
        assert diagnostic.severity == WARNING

    def test_prob_guard_unsatisfiable(self, database):
        plan = PlanBuilder.scan("bib").select(
            "R.book", "B1", prob_op=">", prob_bound=1.0
        ).build()
        [diagnostic] = check_plan(plan, database)
        assert (diagnostic.code, diagnostic.severity) == ("PX225", ERROR)

    def test_prob_guard_trivial(self, database):
        plan = PlanBuilder.scan("bib").select(
            "R.book", "B1", prob_op=">=", prob_bound=0.0
        ).build()
        [diagnostic] = check_plan(plan, database)
        assert (diagnostic.code, diagnostic.severity) == ("PX226", WARNING)

    def test_product_overlapping_ids(self, database):
        db = Database()
        db.register("a", build_bib())
        db.register("b", build_bib())
        plan = ProductNode(ScanNode("a"), ScanNode("b"), "root")
        assert "PX230" in codes(check_plan(plan, db))

    def test_query_never_match(self, database):
        plan = PlanBuilder.scan("bib").exists("R.movie").build()
        assert "PX240" in codes(check_plan(plan, database))

    def test_point_target_not_on_path(self, database):
        plan = PlanBuilder.scan("bib").point("R.book", "A1").build()
        assert "PX241" in codes(check_plan(plan, database))

    def test_chain_not_from_root(self, database):
        plan = PlanBuilder.scan("bib").chain(("B1", "A1")).build()
        assert ("PX242", ERROR) in [
            (d.code, d.severity) for d in check_plan(plan, database)
        ]

    def test_chain_non_potential_link(self, database):
        plan = PlanBuilder.scan("bib").chain(("R", "A1")).build()
        assert "PX243" in codes(check_plan(plan, database))

    def test_prob_unknown_object(self, database):
        plan = PlanBuilder.scan("bib").prob("GHOST").build()
        assert "PX244" in codes(check_plan(plan, database))


class TestLocate:
    """The check passes locate through ``repro.check.locate``: guide
    first, then — lazily — the instance's snapshot, else the walk."""

    def test_a_statement_the_guide_decides_builds_no_snapshot(self, database):
        for text in ("R.book.author", "R.movie"):
            path = PathExpression.parse(text)
            check_plan(PlanBuilder.scan("bib").exists(path).build(), database)
            check_plan(PlanBuilder.scan("bib").point(path, "A1").build(), database)
        live = PathExpression.parse("R.book.author")
        check_plan(PlanBuilder.scan("bib").select(live, "A1").build(), database)
        assert "snapshot" not in database.get("bib").memo
        # Only the wording of a finding on a failing condition asks for
        # the match itself.
        dead = PlanBuilder.scan("bib").select("R.movie", "A1").build()
        assert "PX220" in codes(check_plan(dead, database))
        assert database.get("bib").memo["snapshot"] is not None

    def test_projection_leaves_its_match_in_the_shared_memo(self, database):
        from repro.index import snapshot_of

        path = PathExpression.parse("R.book.author")
        assert check_plan(
            PlanBuilder.scan("bib").project(path).build(), database
        ) == []
        col = snapshot_of("bib", database.get("bib"))
        assert path in col._match_memo      # the executor's match: a hit

    def test_unbuildable_snapshot_degrades_to_the_walk(
        self, database, monkeypatch
    ):
        from repro.index import ColumnarInstance
        from repro.obs.tracing import Tracer, use_tracer

        live = PlanBuilder.scan("bib").project("R.book.author").build()
        dead = PlanBuilder.scan("bib").project("R.movie").build()
        expected = [check_plan(plan, database) for plan in (live, dead)]
        assert codes(expected[1]) == ["PX210"]
        # A new instance: the snapshot must be built for it.
        database.register("bib", build_bib(), replace=True)

        def explode(cls, pi):
            raise RuntimeError("no snapshot today")

        monkeypatch.setattr(
            ColumnarInstance, "from_instance", classmethod(explode)
        )
        tracer = Tracer()
        with use_tracer(tracer):
            degraded = [check_plan(plan, database) for plan in (live, dead)]
        assert degraded == expected
        assert any(
            root.name == "index.build_error" for root in tracer.roots()
        )


class TestTruncatedGuide:
    """A guide cut off at ``DEFAULT_MAX_PATHS`` has no entry for paths that do
    match: it is no evidence of anything, to the plan checker as to the
    abstract interpreter, so a valid statement draws no finding from it
    (a false ``PX220`` is an *error*: it used to block the ``SELECT``)."""

    PATH = "o0.l0_0.l1_0.l2_0.l3_0"

    @pytest.fixture
    def interpreter(self, monkeypatch):
        from repro.pxql import Interpreter
        from repro.workloads.generator import WorkloadSpec, generate_workload

        # Read when a guide is built: the fresh instance's guide is cut.
        monkeypatch.setattr(dataguide, "DEFAULT_MAX_PATHS", 3)
        interpreter = Interpreter()
        interpreter.database.register("t", generate_workload(
            WorkloadSpec(depth=4, branching=2, labeling="FR", seed=1)
        ).instance)
        assert guide_of(interpreter.database.get("t")).truncated
        return interpreter

    def test_point_past_the_truncation_is_not_called_dead(self, interpreter):
        result = interpreter.execute(f"POINT {self.PATH} : o18 IN t")
        assert result.value > 0.0
        assert codes(interpreter.last_diagnostics) == []

    def test_select_past_the_truncation_executes(self, interpreter):
        result = interpreter.execute(f"SELECT {self.PATH} = o18 FROM t AS s")
        assert result.instance_name == "s"
        assert "s" in interpreter.database.names()
        assert not {"PX220", "PX240"} & set(codes(interpreter.last_diagnostics))

    def test_no_plan_finding_from_a_truncated_guide(self, interpreter):
        database = interpreter.database
        path = PathExpression.parse(self.PATH)
        for plan in (
            PlanBuilder.scan("t").exists(path).build(),
            PlanBuilder.scan("t").project(path).build(),
            PlanBuilder.scan("t").select(path, "o18").build(),
        ):
            assert codes(check_plan(plan, database)) == []
