"""CHECK / EXPLAIN LINT / PROB guards / check-before-execute / lint admission."""

import pytest

from repro.check.diagnostics import CheckError
from repro.core.builder import InstanceBuilder
from repro.errors import EmptyResultError, PXMLError
from repro.pxql import Interpreter
from repro.pxql.parser import parse, parse_spanned
from repro.storage.database import Database, DatabaseError
from tests.helpers import evaluate_directly


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


def build_sloppy():
    """Legal but warn-worthy: a potential child never chosen."""
    b = InstanceBuilder("S")
    b.children("S", "x", ["a", "b"])
    b.opf("S", {("a",): 1.0, ("a", "b"): 0.0})
    b.leaf("a", "t", ["v"], {"v": 1.0})
    b.leaf("b", "t", None, {"v": 1.0})
    return b.build()


def build_broken():
    """No coherent semantics: OPF mass outside the potential children."""
    b = InstanceBuilder("R")
    b.children("R", "x", ["a"])
    b.opf("R", {("a",): 0.5, ("ghost",): 0.5})
    b.leaf("a", "t", ["v"], {"v": 1.0})
    return b.build(validate=False)


@pytest.fixture
def interpreter():
    it = Interpreter(Database())
    it.database.register("bib", build_bib())
    return it


class TestParser:
    def test_check_statement_parses(self):
        from repro.pxql import ast

        statement = parse("CHECK SELECT R.book = B1 FROM bib")
        assert isinstance(statement, ast.CheckStatement)
        assert isinstance(statement.statement, ast.SelectStatement)

    def test_explain_lint_parses(self):
        from repro.pxql import ast

        statement = parse("EXPLAIN LINT PROJECT R.book FROM bib")
        assert isinstance(statement, ast.ExplainStatement)
        assert statement.lint and not statement.analyze

    def test_prob_guard_clause(self):
        statement = parse("SELECT R.book = B1 AND PROB >= 0.25 FROM bib")
        assert statement.prob_op == ">="
        assert statement.prob_bound == pytest.approx(0.25)

    def test_spans_cover_roles(self):
        text = "SELECT R.book = B1 AND PROB > 0.5 FROM bib"
        _, spans = parse_spanned(text)
        start, end = spans["oid"]
        assert text[start:end] == "B1"
        start, end = spans["source"]
        assert text[start:end] == "bib"
        start, end = spans["prob"]
        assert text[start:end] == "> 0.5"

    def test_syntax_error_carries_position(self):
        from repro.pxql.lexer import PXQLSyntaxError

        with pytest.raises(PXQLSyntaxError) as info:
            parse("SELECT R.book = B1 AND PROB ! 0.5 FROM bib")
        assert info.value.position is not None


class TestCheckStatement:
    def test_check_reports_without_executing(self, interpreter):
        result = interpreter.execute("CHECK PROJECT R.movie FROM bib AS out")
        assert any(d.code == "PX210" for d in result.value)
        # CHECK never executes: no result instance was registered.
        assert "out" not in interpreter.database.names()

    def test_check_clean_statement(self, interpreter):
        result = interpreter.execute("CHECK POINT R.book : B1 IN bib")
        assert [d for d in result.value if d.severity != "info"] == []

    def test_explain_lint_includes_plan_and_findings(self, interpreter):
        result = interpreter.execute("EXPLAIN LINT SELECT R.book = B1 FROM bib")
        assert "Scan(bib)" in result.text
        assert "error(s)" in result.text


class TestCheckBeforeExecute:
    def test_zero_probability_selection_blocked(self, interpreter):
        with pytest.raises(CheckError) as info:
            interpreter.execute("SELECT R.movie = M1 FROM bib")
        assert any(d.code == "PX220" for d in info.value.diagnostics)

    def test_warn_mode_records_but_runs(self):
        it = Interpreter(Database(), check="warn")
        it.database.register("bib", build_bib())
        result = it.execute("PROJECT R.movie FROM bib AS bare")
        assert result.instance_name == "bare"
        assert any(d.code == "PX210" for d in it.last_diagnostics)

    def test_off_mode_defers_to_runtime(self):
        it = Interpreter(Database(), check="off")
        it.database.register("sloppy", build_sloppy())
        with pytest.raises(EmptyResultError):
            it.execute("SELECT S.x = b FROM sloppy")

    def test_checker_catches_what_runtime_would_raise(self):
        it = Interpreter(Database())
        it.database.register("sloppy", build_sloppy())
        with pytest.raises(CheckError) as info:
            it.execute("SELECT S.x = b FROM sloppy")
        assert any(d.code == "PX220" for d in info.value.diagnostics)

    def test_warnings_never_block(self, interpreter):
        result = interpreter.execute("PROJECT R.movie FROM bib AS bare")
        assert result.instance_name == "bare"

    def test_a_failing_check_is_counted_not_fatal(self, interpreter, monkeypatch):
        import repro.check.query as query

        def explode(*_args, **_kwargs):
            raise RuntimeError("checker bug")

        monkeypatch.setattr(query, "check_plan", explode)
        assert interpreter.execute("EXISTS R.book IN bib").value == pytest.approx(1.0)
        assert interpreter.last_diagnostics == []
        assert interpreter.metrics.counter("check.errors").value == 1
        [event] = [
            root for root in interpreter.tracer.roots() if root.name == "check.error"
        ]
        assert "checker bug" in event.attributes["error"]

    def test_unknown_source_is_check_error(self, interpreter):
        with pytest.raises(PXMLError):
            interpreter.execute("SHOW ghost")


class TestProbGuard:
    def test_guard_violation_raises(self):
        it = Interpreter(Database(), check="off")
        it.database.register("bib", build_bib())
        with pytest.raises(EmptyResultError):
            it.execute("SELECT R.book = B1 AND PROB > 0.99 FROM bib")
        with pytest.raises(EmptyResultError):
            evaluate_directly(
                it.database, "SELECT R.book = B1 AND PROB > 0.99 FROM bib"
            )

    def test_guard_pass_through(self):
        it = Interpreter(Database())
        it.database.register("bib", build_bib())
        result = it.execute("SELECT R.book = B1 AND PROB > 0.5 FROM bib AS s")
        assert result.instance_name == "s"
        assert result.value.objects == evaluate_directly(
            it.database, "SELECT R.book = B1 AND PROB > 0.5 FROM bib"
        ).objects

    def test_static_unsatisfiable_guard(self, interpreter):
        with pytest.raises(CheckError) as info:
            interpreter.execute("SELECT R.book = B1 AND PROB > 1.0 FROM bib")
        assert any(d.code == "PX225" for d in info.value.diagnostics)


class TestLintAdmission:
    def test_lint_database_rejects_broken(self):
        db = Database(validate="lint")
        with pytest.raises(DatabaseError) as info:
            db.register("broken", build_broken())
        assert "outside-pc" in str(info.value)

    def test_lint_database_admits_warnings(self):
        db = Database(validate="lint")
        db.register("sloppy", build_sloppy())
        assert "sloppy" in db.names()

    def test_default_database_admits_anything(self):
        Database().register("broken", build_broken())

    def test_reload_applies_admission(self, tmp_path):
        db = Database(tmp_path)
        db.register("bib", build_bib())
        db.save("bib")
        before = db.version("bib")
        instance = db.reload("bib")
        assert db.version("bib") > before
        assert instance.root == "R"

    def test_reload_requires_backing(self):
        with pytest.raises(DatabaseError):
            Database().reload("bib")

    def test_lazy_load_applies_admission(self, tmp_path):
        writer = Database(tmp_path)
        writer.register("broken", build_broken())
        writer.save("broken")
        reader = Database(tmp_path, validate="lint")
        with pytest.raises(DatabaseError):
            reader.get("broken")
