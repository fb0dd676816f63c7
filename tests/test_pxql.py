"""Tests for the PXQL lexer, parser and interpreter."""

import pytest

from repro.core.builder import InstanceBuilder
from repro.errors import PXMLError
from repro.pxql import Interpreter, PXQLSyntaxError, parse, tokenize
from repro.pxql import ast
from repro.storage.database import Database


def build_bib():
    b = InstanceBuilder("R")
    b.children("R", "book", ["B1", "B2"])
    b.opf("R", {("B1",): 0.3, ("B2",): 0.2, ("B1", "B2"): 0.4, (): 0.1})
    b.children("B1", "author", ["A1", "A2"])
    b.opf("B1", {("A1",): 0.5, ("A2",): 0.2, ("A1", "A2"): 0.3})
    b.children("B2", "author", ["A3"])
    b.opf("B2", {("A3",): 0.6, (): 0.4})
    b.leaf("A1", "name", ["x", "y"], {"x": 0.7, "y": 0.3})
    b.leaf("A2", "name", vpf={"x": 1.0})
    b.leaf("A3", "name", vpf={"y": 1.0})
    return b.build()


@pytest.fixture
def interpreter():
    it = Interpreter()
    it.database.register("bib", build_bib())
    return it


class TestLexer:
    def test_keywords_case_insensitive(self):
        kinds = [t.kind for t in tokenize("select Point EXISTS")]
        assert kinds == ["KEYWORD", "KEYWORD", "KEYWORD", "EOF"]

    def test_dotted_ident_is_one_token(self):
        tokens = tokenize("R.book.author")
        assert tokens[0].kind == "IDENT"
        assert tokens[0].value == "R.book.author"

    def test_string_literal_unescaped(self):
        tokens = tokenize('"hello \\"x\\""')
        assert tokens[0].kind == "STRING"
        assert tokens[0].value == 'hello "x"'

    def test_numbers(self):
        tokens = tokenize("42 -1 3.5")
        assert [t.value for t in tokens[:-1]] == ["42", "-1", "3.5"]

    def test_punct(self):
        kinds = [t.kind for t in tokenize("= : , ( ) [ ]")[:-1]]
        assert kinds == ["PUNCT"] * 7

    def test_bad_character_rejected(self):
        with pytest.raises(PXQLSyntaxError):
            tokenize("SELECT $$$")

    def test_keyword_like_path_component_is_ident(self):
        # 'select' inside a dotted path must not become a keyword.
        tokens = tokenize("R.select.in")
        assert tokens[0].kind == "IDENT"


class TestParser:
    def test_project_defaults_to_ancestor(self):
        stmt = parse("PROJECT R.book FROM bib")
        assert isinstance(stmt, ast.ProjectStatement)
        assert stmt.kind == "ancestor"
        assert stmt.target is None

    def test_project_kinds_and_as(self):
        stmt = parse("PROJECT SINGLE R.book FROM bib AS flat")
        assert stmt.kind == "single"
        assert stmt.target == "flat"

    def test_select_with_value(self):
        stmt = parse('SELECT R.book.author = A1 AND VALUE = "y" FROM bib')
        assert stmt.value == "y"
        assert stmt.oid == "A1"

    def test_select_with_card(self):
        stmt = parse("SELECT R.book = B1 AND CARD (author) IN [1, 2] FROM bib")
        assert stmt.card_label == "author"
        assert stmt.card_bounds == (1, 2)

    def test_product(self):
        stmt = parse("PRODUCT a, b ROOT r AS c")
        assert (stmt.left, stmt.right, stmt.new_root, stmt.target) == (
            "a", "b", "r", "c"
        )

    def test_point(self):
        stmt = parse("POINT R.book : B1 IN bib")
        assert str(stmt.path) == "R.book"
        assert stmt.oid == "B1"

    def test_chain_splits_oids(self):
        stmt = parse("CHAIN R.B1.A1 IN bib")
        assert stmt.chain == ("R", "B1", "A1")

    def test_worlds_limit(self):
        assert parse("WORLDS bib LIMIT 3").limit == 3
        assert parse("WORLDS bib").limit == 20

    def test_load_save(self):
        load = parse('LOAD x FROM "f.json"')
        assert (load.name, load.path) == ("x", "f.json")
        save = parse('SAVE x TO "g.json"')
        assert save.path == "g.json"
        assert parse("SAVE x").path is None

    def test_trailing_garbage_rejected(self):
        with pytest.raises(PXQLSyntaxError):
            parse("LIST LIST")

    def test_missing_from_rejected(self):
        with pytest.raises(PXQLSyntaxError):
            parse("PROJECT R.book bib")

    def test_path_where_name_expected_rejected(self):
        with pytest.raises(PXQLSyntaxError):
            parse("SHOW a.b")


class TestInterpreter:
    def test_point_query(self, interpreter):
        result = interpreter.execute("POINT R.book.author : A1 IN bib")
        assert result.value == pytest.approx(0.7 * 0.8)

    def test_exists_query(self, interpreter):
        result = interpreter.execute("EXISTS R.book.author IN bib")
        assert 0.0 < result.value < 1.0

    def test_chain_query(self, interpreter):
        result = interpreter.execute("CHAIN R.B2.A3 IN bib")
        assert result.value == pytest.approx(0.6 * 0.6)

    def test_prob_query(self, interpreter):
        result = interpreter.execute("PROB B1 IN bib")
        assert result.value == pytest.approx(0.7)

    def test_projection_registers_result(self, interpreter):
        result = interpreter.execute("PROJECT R.book.author FROM bib AS authors")
        assert result.instance_name == "authors"
        assert "authors" in interpreter.database
        # The result is itself queryable.
        follow = interpreter.execute("POINT R.book.author : A1 IN authors")
        assert follow.value == pytest.approx(0.56)

    def test_selection_composes(self, interpreter):
        interpreter.execute("SELECT R.book = B1 FROM bib AS sure")
        result = interpreter.execute("POINT R.book : B1 IN sure")
        assert result.value == pytest.approx(1.0)

    def test_auto_named_results(self, interpreter):
        result = interpreter.execute("PROJECT R.book FROM bib")
        assert result.instance_name.startswith("_result")
        assert result.instance_name in interpreter.database

    def test_value_selection(self, interpreter):
        result = interpreter.execute(
            'SELECT R.book.author = A1 AND VALUE = "y" FROM bib AS vy'
        )
        assert "0.168" in result.text

    def test_card_selection(self, interpreter):
        result = interpreter.execute(
            "SELECT R.book = B1 AND CARD (author) IN [2, 2] FROM bib"
        )
        assert "0.21" in result.text

    def test_product_statement(self, interpreter):
        other = InstanceBuilder("R2")
        other.children("R2", "paper", ["P1"], card=(0, 1))
        other.opf("R2", {(): 0.5, ("P1",): 0.5})
        other.leaf("P1", "t", ["v"], {"v": 1.0})
        interpreter.database.register("other", other.build())
        result = interpreter.execute("PRODUCT bib, other ROOT lib AS combined")
        assert result.instance_name == "combined"
        follow = interpreter.execute("POINT lib.paper : P1 IN combined")
        assert follow.value == pytest.approx(0.5)

    def test_worlds_statement(self, interpreter):
        result = interpreter.execute("WORLDS bib LIMIT 3")
        assert "more worlds" in result.text

    def test_show_statement(self, interpreter):
        result = interpreter.execute("SHOW bib")
        assert "PC(R)" in result.text
        assert "--book-->" in result.text

    def test_list_and_drop(self, interpreter):
        assert interpreter.execute("LIST").value == ["bib"]
        interpreter.execute("DROP bib")
        assert interpreter.execute("LIST").value == []

    def test_unknown_instance_errors(self, interpreter):
        with pytest.raises(PXMLError):
            interpreter.execute("SHOW ghost")

    def test_load_save_round_trip(self, tmp_path):
        db = Database(tmp_path)
        it = Interpreter(db)
        it.database.register("bib", build_bib())
        it.execute("SAVE bib")
        fresh = Interpreter(Database(tmp_path))
        result = fresh.execute("POINT R.book : B1 IN bib")
        assert result.value == pytest.approx(0.7)

    def test_save_to_explicit_path(self, interpreter, tmp_path):
        target = tmp_path / "out.json"
        interpreter.execute(f'SAVE bib TO "{target}"')
        assert target.exists()
        interpreter.execute(f'LOAD again FROM "{target}"')
        assert "again" in interpreter.database


class TestCLI:
    def test_cli_single_statement(self, tmp_path, capsys):
        from repro.pxql.__main__ import main

        db = Database(tmp_path)
        db.register("bib", build_bib())
        db.save("bib")
        code = main(["-d", str(tmp_path), "POINT R.book : B1 IN bib"])
        assert code == 0
        assert "0.7" in capsys.readouterr().out

    def test_cli_error_exit_code(self, tmp_path, capsys):
        from repro.pxql.__main__ import main

        code = main(["-d", str(tmp_path), "SHOW ghost"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestAggregateStatements:
    def test_count_statement(self, interpreter):
        result = interpreter.execute("COUNT R.book.author IN bib")
        assert result.value == pytest.approx(1.27)

    def test_dist_statement(self, interpreter):
        result = interpreter.execute("DIST R.book.author IN bib")
        assert sum(result.value.values()) == pytest.approx(1.0)
        assert result.value[0] == pytest.approx(0.18)
        assert "0: 0.18" in result.text

    def test_count_parse(self):
        stmt = parse("COUNT R.book IN bib")
        assert str(stmt.path) == "R.book"
        assert stmt.source == "bib"


class TestSampleStrategy:
    def test_sample_engine_close_to_exact(self):
        from repro.queries.engine import QueryEngine

        pi = build_bib()
        exact = QueryEngine(pi, strategy="local").point("R.book.author", "A1")
        sampled = QueryEngine(pi, strategy="sample", samples=4000, seed=9)
        assert sampled.point("R.book.author", "A1") == pytest.approx(exact, abs=0.05)
        assert sampled.exists("R.book.author") == pytest.approx(
            QueryEngine(pi, strategy="local").exists("R.book.author"), abs=0.05
        )
        assert sampled.chain(["R", "B1", "A1"]) == pytest.approx(exact, abs=0.05)
        assert sampled.object_exists("B1") == pytest.approx(0.7, abs=0.05)


class TestUnrollAndEstimate:
    @pytest.fixture
    def looped(self):
        from repro.core.distributions import TabularOPF
        from repro.core.instance import ProbabilisticInstance
        from repro.core.weak_instance import WeakInstance

        it = Interpreter()
        weak = WeakInstance("w")
        weak.set_lch("w", "next", ["w"])
        pi = ProbabilisticInstance(weak)
        pi.set_opf("w", TabularOPF({("w",): 0.3, (): 0.7}))
        it.database.register("loop", pi)
        return it

    def test_unroll_statement(self, looped):
        result = looped.execute("UNROLL loop HORIZON 3 AS flat")
        assert result.instance_name == "flat"
        chain = looped.execute("CHAIN w.w@1.w@2 IN flat")
        assert chain.value == pytest.approx(0.09)

    def test_unroll_parse(self):
        stmt = parse("UNROLL loop HORIZON 5")
        assert stmt.horizon == 5
        assert stmt.target is None

    def test_estimate_point(self, interpreter):
        result = interpreter.execute(
            "ESTIMATE R.book.author : A1 IN bib SAMPLES 3000"
        )
        assert result.value.probability == pytest.approx(0.56, abs=0.05)
        assert "±" in result.text

    def test_estimate_existential(self, interpreter):
        result = interpreter.execute("ESTIMATE R.book.author IN bib SAMPLES 3000")
        assert result.value.probability == pytest.approx(0.82, abs=0.05)

    def test_estimate_default_samples(self, interpreter):
        stmt = parse("ESTIMATE R.book IN bib")
        assert stmt.samples == 1000
        assert stmt.oid is None


class TestSessionHistoryIsBounded:
    """A served interpreter lives as long as its server: what it keeps
    per executed statement must not grow with the number executed."""

    def test_ten_thousand_reads_leave_a_fixed_history(self, interpreter):
        from repro.check.script import HISTORY_WINDOW

        reads = ["EXISTS R.book IN bib", "POINT R.book : B1 IN bib"]
        for index in range(10_000):
            interpreter.execute(reads[index % len(reads)])
        assert len(interpreter.script._history) == HISTORY_WINDOW
        # Positions keep counting, and what is inside the window still
        # fires: the shadowed registration is named by its session line.
        interpreter.execute("PROJECT R.book FROM bib AS p")
        found = interpreter.execute("CHECK PROJECT R.book FROM bib AS p").value
        assert "line 10001" in next(
            d.message for d in found if d.code == "PX313"
        )
        assert len(interpreter.script._history) == HISTORY_WINDOW

    def test_shadowing_older_than_the_window_goes_unreported(self):
        from repro.check.script import HISTORY_WINDOW, ScriptTracker

        tracker = ScriptTracker()
        tracker.observe(parse("SET TIMEOUT 5"))
        tracker.observe(parse("PROJECT R.book FROM bib AS p"))
        again = parse("PROJECT R.book FROM bib AS p WITH TIMEOUT 1")
        assert len(tracker.preview(again)) == 2
        for _ in range(HISTORY_WINDOW):
            tracker.observe(parse("LIST"))
        assert tracker.preview(again) == []


class TestParseMemo:
    def test_repeats_share_one_parse_and_errors_are_never_remembered(self):
        from repro.pxql.parser import PARSE_MEMO_SIZE, parse_memo, parse_spanned

        memo = parse_memo()
        text = "POINT R.book : B1 IN bib"
        first = memo(text)
        assert first == parse_spanned(text)
        assert memo(text) is first
        for _attempt in range(2):
            with pytest.raises(PXQLSyntaxError):
                memo("FROB the knob")
        info = memo.cache_info()
        assert (info.hits, info.currsize, info.maxsize) == (1, 1, PARSE_MEMO_SIZE)
        # One memo per owner: nothing is shared through the module.
        assert parse_memo().cache_info().currsize == 0
