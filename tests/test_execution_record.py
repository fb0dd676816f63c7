"""One execution record: the ``engine.node.<label>`` span is the node's
statistic.

``EXPLAIN ANALYZE`` renders the execution's node spans and ``PROFILE``
the statement's whole span tree, through the one renderer, so the two
print the same node lines.  A served sampled answer is seeded by its
plan, and a disabled tracer still times the spans it yields.
"""

from __future__ import annotations

import re

import pytest

import repro.engine.cost as cost
from repro.core.builder import InstanceBuilder
from repro.engine import Engine
from repro.obs.export import node_spans, render_span
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.tracing import Tracer, use_tracer
from repro.paper import figure2_instance
from repro.pxql import Interpreter
from repro.queries.engine import QueryEngine
from repro.storage.database import Database


def _bib():
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


def _shelf():
    b = InstanceBuilder("S")
    b.children("S", "box", ["X1"])
    b.opf("S", {("X1",): 0.7, (): 0.3})
    return b.build()


#: One statement per plannable kind, and one the certificate answers.
STATEMENTS = {
    "project": "PROJECT R.book FROM bib AS m",
    "select": "SELECT R.book = B1 FROM bib AS s",
    "product": "PRODUCT bib, shelf ROOT lib AS p",
    "point": "POINT R.book.author : A1 IN bib",
    "exists": "EXISTS R.book.author IN bib",
    "chain": "CHAIN R.B1.A1 IN bib",
    "prob": "PROB A2 IN bib",
    "count": "COUNT R.book.author IN bib",
    "dist": "DIST R.book.author IN bib",
    "absint": "EXISTS R.movie IN bib",
}

_TIMES = re.compile(r"[0-9.]+ ms(, cpu [0-9.]+ ms)?")


def _node_lines(text: str) -> list[str]:
    """The ``engine.node.*`` lines of a rendered tree, without the tree
    drawing and with the times masked."""
    return [
        _TIMES.sub("T", line[line.index("engine.node."):])
        for line in text.splitlines()
        if "engine.node." in line
    ]


@pytest.fixture
def interpreter():
    interpreter = Interpreter(Database())
    interpreter.database.register("bib", _bib())
    interpreter.database.register("shelf", _shelf())
    return interpreter


@pytest.mark.parametrize("kind", sorted(STATEMENTS))
def test_explain_analyze_and_profile_print_the_same_node_lines(
    interpreter, kind
):
    statement = STATEMENTS[kind]
    analyzed = interpreter.execute(f"EXPLAIN ANALYZE {statement}").text
    profiled = interpreter.execute(f"PROFILE {statement}")
    lines = _node_lines(analyzed)
    assert lines and lines == _node_lines(profiled.text), kind
    # Those lines are the node spans, each through the one renderer.
    assert lines == [
        _TIMES.sub("T", render_span(span))
        for span in node_spans(profiled.value)
    ]
    if kind == "absint":
        assert lines == ["engine.node.Query[exists R.movie]  (T, strategy=absint)"]
    if kind == "select":
        assert "condition_probability=0.8" in lines[0]


def test_a_sampled_answer_is_seeded_by_its_plan(monkeypatch):
    """Fresh interpreters give one sampled answer (the statement tier
    then keeps the same estimate in every process), and ``EXPLAIN
    ANALYZE`` shows the estimate's standard error on its query span."""
    monkeypatch.setattr(cost, "SAMPLE_ENTRY_THRESHOLD", 0)
    statement = "POINT R.book.author : A1 IN fig2"
    answers = set()
    for _ in range(4):
        interpreter = Interpreter(Database())
        interpreter.database.register("fig2", figure2_instance())
        answers.add(interpreter.execute(statement).value)
    assert len(answers) == 1
    analyzed = interpreter.execute(f"EXPLAIN ANALYZE {statement}").text
    (query_line,) = [
        line for line in analyzed.splitlines() if "query.point" in line
    ]
    assert "stderr=" in query_line and "strategy=sample" in query_line


def test_a_disabled_tracer_still_times_its_spans():
    """Standalone queries under a disabled tracer observe their real
    wall time in ``query.wall_s``; the tracer keeps nothing."""
    registry = MetricsRegistry()
    tracer = Tracer(enabled=False)
    engine = QueryEngine(_bib(), strategy="local")
    with use_tracer(tracer), use_registry(registry):
        for _ in range(3):
            engine.point("R.book.author", "A1")
    histogram = registry.histogram("query.wall_s")
    assert histogram.count == 3
    assert histogram.mean > 0.0
    assert tracer.roots() == []


def test_engine_rejects_a_disabled_tracer():
    with pytest.raises(ValueError, match="enabled Tracer"):
        Engine(Database(), tracer=Tracer(enabled=False))
