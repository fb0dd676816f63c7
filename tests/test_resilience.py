"""Unit tests for repro.resilience: budgets, retry, faults, graceful
engine degradation, and the PXQL timeout surface."""

import random

import pytest

from repro.core.builder import InstanceBuilder
from repro.engine import Engine
from repro.errors import BudgetExceeded, FaultError, PXMLError
from repro.obs.export import node_spans
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.paper import example52_instance, figure2_instance
from repro.pxql.interpreter import Interpreter
from repro.pxql.lexer import PXQLSyntaxError
from repro.pxql.parser import parse
from repro.pxql import ast
from repro.resilience import (
    Budget,
    FaultInjector,
    FaultSpec,
    RetryPolicy,
    current_budget,
    fault_point,
    retry_call,
    use_budget,
)
from repro.storage.database import Database
from tests.helpers import evaluate_directly


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ----------------------------------------------------------------------
# Budget
# ----------------------------------------------------------------------
class TestBudget:
    def test_deadline(self):
        clock = FakeClock()
        budget = Budget(deadline_s=1.0, clock=clock).start()
        budget.check_deadline("here")  # within
        clock.advance(2.0)
        with pytest.raises(BudgetExceeded) as info:
            budget.check_deadline("here")
        assert info.value.limit == "deadline"
        assert info.value.where == "here"

    def test_node_evals(self):
        budget = Budget(max_node_evals=2)
        budget.tick_node("a")
        budget.tick_node("b")
        with pytest.raises(BudgetExceeded) as info:
            budget.tick_node("c")
        assert info.value.limit == "node_evals"
        assert info.value.where == "c"

    def test_result_objects(self):
        budget = Budget(max_result_objects=10)
        budget.charge_objects(6, "x")
        with pytest.raises(BudgetExceeded) as info:
            budget.charge_objects(6, "y")
        assert info.value.limit == "result_objects"

    def test_unlimited_budget_never_trips(self):
        budget = Budget()
        for _ in range(1000):
            budget.tick_node()
        budget.charge_objects(10**9)
        budget.check_deadline()

    def test_ambient_install(self):
        assert current_budget() is None
        budget = Budget(deadline_s=5.0)
        with use_budget(budget) as active:
            assert active is budget
            assert current_budget() is budget
            assert budget.started_at is not None
        assert current_budget() is None

    def test_exceed_bumps_metric(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            budget = Budget(max_node_evals=0)
            with pytest.raises(BudgetExceeded):
                budget.tick_node()
        assert registry.counter("budget.exceeded").value == 1.0


# ----------------------------------------------------------------------
# Retry
# ----------------------------------------------------------------------
class TestRetry:
    def test_succeeds_after_transient_failures(self):
        calls = []
        sleeps = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "ok"

        policy = RetryPolicy(attempts=3, base_delay_s=0.01, jitter=0.0)
        assert retry_call(flaky, policy, sleep=sleeps.append) == "ok"
        assert len(calls) == 3
        assert sleeps == [pytest.approx(0.01), pytest.approx(0.02)]

    def test_exhausted_raises_last_error(self):
        def always():
            raise OSError("permanent")

        policy = RetryPolicy(attempts=2, base_delay_s=0.0)
        with pytest.raises(OSError, match="permanent"):
            retry_call(always, policy, sleep=lambda _s: None)

    def test_give_up_on_beats_retry_on(self):
        calls = []

        def vanish():
            calls.append(1)
            raise FileNotFoundError("gone")

        policy = RetryPolicy(attempts=5, base_delay_s=0.0)
        with pytest.raises(FileNotFoundError):
            retry_call(
                vanish, policy,
                retry_on=(OSError,), give_up_on=(FileNotFoundError,),
                sleep=lambda _s: None,
            )
        assert len(calls) == 1  # no retries for a vanished file

    def test_unmatched_exceptions_propagate_immediately(self):
        calls = []

        def boom():
            calls.append(1)
            raise ValueError("not an OSError")

        with pytest.raises(ValueError):
            retry_call(boom, RetryPolicy(attempts=5), sleep=lambda _s: None)
        assert len(calls) == 1

    def test_retries_are_counted(self):
        registry = MetricsRegistry()
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 2:
                raise OSError("transient")
            return 42

        with use_registry(registry):
            retry_call(flaky, RetryPolicy(attempts=3, base_delay_s=0.0),
                       sleep=lambda _s: None, site="test")
        assert registry.counter("resilience.retries").value == 1.0

    def test_jitter_is_seeded(self):
        policy = RetryPolicy(base_delay_s=0.1, jitter=0.5, seed=7)
        a = [policy.delay_for(i, random.Random(7)) for i in range(4)]
        b = [policy.delay_for(i, random.Random(7)) for i in range(4)]
        assert a == b
        assert all(d >= 0.0 for d in a)

    def test_backoff_is_capped(self):
        policy = RetryPolicy(base_delay_s=0.1, max_delay_s=0.15, jitter=0.0)
        assert policy.delay_for(0, random.Random(0)) == pytest.approx(0.1)
        assert policy.delay_for(5, random.Random(0)) == pytest.approx(0.15)


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_noop_without_injector(self):
        assert fault_point("nowhere") is None
        assert fault_point("nowhere", "payload") == "payload"

    def test_nth_and_times_schedule(self):
        spec = FaultSpec("site.a", kind="error", nth=2, times=2)
        with FaultInjector(spec) as injector:
            fault_point("site.a")  # visit 1: armed but not yet firing
            with pytest.raises(FaultError):
                fault_point("site.a")  # visit 2 fires
            with pytest.raises(FaultError):
                fault_point("site.a")  # visit 3 fires (times=2)
            fault_point("site.a")  # exhausted
        assert injector.fired() == 2
        assert [e.visit for e in injector.events] == [2, 3]

    def test_custom_exception_type(self):
        with FaultInjector(FaultSpec("io", exception=OSError)):
            with pytest.raises(OSError):
                fault_point("io")

    def test_pattern_matching(self):
        spec = FaultSpec("pxql.cache.statements.*", times=None)
        with FaultInjector(spec) as injector:
            with pytest.raises(FaultError):
                fault_point("pxql.cache.statements.get")
            with pytest.raises(FaultError):
                fault_point("pxql.cache.statements.put")
            fault_point("pxql.other")  # no match
        assert injector.fired("pxql.cache.statements.*") == 2

    def test_corrupt_breaks_json(self):
        import json

        text = '{"k": [1, 2, 3]}'
        with FaultInjector(FaultSpec("payload", kind="corrupt")):
            mangled = fault_point("payload", text)
        assert mangled != text
        assert "\x00" in mangled
        with pytest.raises(json.JSONDecodeError):
            json.loads(mangled)

    def test_probability_is_seeded(self):
        def run(seed):
            fired = []
            spec = FaultSpec("p", kind="error", probability=0.5, times=None)
            with FaultInjector(spec, seed=seed) as injector:
                for _ in range(50):
                    try:
                        fault_point("p")
                        fired.append(0)
                    except FaultError:
                        fired.append(1)
            return fired

        assert run(13) == run(13)
        assert run(13) != run(14)

    def test_slow_uses_injected_sleep(self):
        sleeps = []
        spec = FaultSpec("s", kind="slow", delay_s=0.5)
        with FaultInjector(spec, sleep=sleeps.append):
            fault_point("s")
        assert sleeps == [0.5]

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("x", kind="explode")
        with pytest.raises(ValueError):
            FaultSpec("x", nth=0)


# ----------------------------------------------------------------------
# Graceful engine degradation
# ----------------------------------------------------------------------
def _fig2_interpreter(**kwargs):
    interpreter = Interpreter(check="off", **kwargs)
    interpreter.database.register("fig2", figure2_instance())
    return interpreter


def _ex52_interpreter():
    interpreter = Interpreter(check="off")
    interpreter.database.register("ex52", example52_instance())
    return interpreter


def _break_snapshot_access(monkeypatch, engine):
    """Make the snapshot access method (an accelerated layer) raise;
    returns the list its calls are recorded in."""
    calls = []

    def explode(node, pi, col):
        calls.append(node)
        raise RuntimeError("snapshot access exploded")

    monkeypatch.setattr(engine, "_apply_indexed", explode)
    return calls


def _bib_tree():
    """A three-level tree every path statement of the snapshot reaches."""
    b = InstanceBuilder("R")
    b.children("R", "book", ["B1", "B2"])
    b.opf("R", {("B1",): 0.3, ("B2",): 0.2, ("B1", "B2"): 0.4, (): 0.1})
    b.children("B1", "author", ["A1"])
    b.opf("B1", {("A1",): 0.5, (): 0.5})
    b.children("B2", "author", ["A3"])
    b.opf("B2", {("A3",): 0.6, (): 0.4})
    b.leaf("A1", "name", ["x", "y"], {"x": 0.7, "y": 0.3})
    b.leaf("A3", "name", vpf={"y": 1.0})
    return b.build()


#: One statement per operator the snapshot evaluates: the ancestor
#: projection and every query kind.
_SNAPSHOT_STATEMENTS = {
    "project": "PROJECT R.book.author FROM bib AS p",
    "point": "POINT R.book.author : A1 IN bib",
    "prob": "PROB A1 IN bib",
    "chain": "CHAIN R.B1.A1 IN bib",
    "exists": "EXISTS R.book.author IN bib",
    "count": "COUNT R.book.author IN bib",
    "dist": "DIST R.book.author IN bib",
}


class TestEngineDegradation:
    @pytest.mark.parametrize("kind", sorted(_SNAPSHOT_STATEMENTS))
    def test_failed_snapshot_evaluation_is_answered_by_the_walk(
        self, kind, monkeypatch
    ):
        """The snapshot fails open where it runs: called directly, with
        no interpreter in front, ``Engine.execute_plan`` answers a failed
        ``_apply_indexed`` with the walked operator — the reference
        answer, on the path ``execute_as_written`` takes — and counts one
        fallback per statement."""
        text = _SNAPSHOT_STATEMENTS[kind]
        oracle = Database()
        oracle.register("bib", _bib_tree())
        expected = evaluate_directly(oracle, text)
        database = Database()
        database.register("bib", _bib_tree())
        engine = Engine(database)
        plan = engine.plan_statement(parse(text))
        assert engine.execute_plan(plan).span.attributes["strategy"] == "indexed"
        calls = _break_snapshot_access(monkeypatch, engine)

        execution = engine.execute_plan(plan)
        if kind == "project":
            assert execution.value.objects == expected.objects
        else:
            assert execution.value == pytest.approx(expected)
        assert len(calls) == 1
        assert engine.metrics.value("resilience.fallbacks") == 1
        assert engine.metrics.value("index.fallbacks") == 1
        assert execution.span.attributes["strategy"] != "indexed"
        event = engine.tracer.last.find("resilience.fallback")
        assert "snapshot access exploded" in event.attributes["error"]
        walked = engine.execute_as_written(plan)
        assert [
            (n.name, n.attributes.get("strategy"))
            for n in node_spans(execution.span)
        ] == [
            (n.name, n.attributes.get("strategy"))
            for n in node_spans(walked.span)
        ]

        engine.execute_plan(plan)
        assert len(calls) == 2                 # nothing remembers a failure
        assert engine.metrics.value("resilience.fallbacks") == 2

    def test_budget_raised_on_the_snapshot_propagates(self, monkeypatch):
        """A budget is the user's limit, not an accelerator fault: raised
        inside ``_apply_indexed`` it surfaces and nothing is counted."""
        database = Database()
        database.register("bib", _bib_tree())
        engine = Engine(database)

        def over_budget(node, pi, col):
            raise BudgetExceeded("over budget")

        monkeypatch.setattr(engine, "_apply_indexed", over_budget)
        for text in _SNAPSHOT_STATEMENTS.values():
            with pytest.raises(BudgetExceeded):
                engine.execute_plan(engine.plan_statement(parse(text)))
        assert engine.metrics.value("resilience.fallbacks") == 0
        assert engine.metrics.value("index.fallbacks") == 0

    def test_cache_get_faults_never_fail_a_query(self):
        interpreter = _fig2_interpreter()
        with FaultInjector(
            FaultSpec("pxql.cache.statements.*", kind="error", times=None)
        ) as injector:
            value = interpreter.execute("PROB B1 IN fig2").value
        assert value == pytest.approx(0.8)
        assert injector.fired("pxql.cache.statements.get") == 1
        assert interpreter.metrics.counter(
            "resilience.cache_errors"
        ).value >= 1.0

    def test_statement_falls_back_to_naive_path(self, monkeypatch):
        """A statement whose snapshot evaluation fails is answered by the
        walked operator inside the same execution (the test id is kept
        stable)."""
        expected = _ex52_interpreter().execute("PROB B1 IN ex52").value
        interpreter = _ex52_interpreter()
        _break_snapshot_access(monkeypatch, interpreter.engine)
        result = interpreter.execute("PROB B1 IN ex52")
        assert result.value == pytest.approx(expected)
        assert interpreter.metrics.counter(
            "resilience.fallbacks"
        ).value == 1.0
        assert interpreter.metrics.counter("engine.executions").value == 1.0
        root = interpreter.tracer.last
        assert root.find("engine.node.Query[prob B1]") is not None
        assert "PROB" in root.attributes["statement"]
        assert "exploded" in root.find("resilience.fallback").attributes["error"]

    def test_user_errors_are_not_fallbacks(self):
        """A statement that fails on the walked operators is the user's
        error: raised, counted in ``pxql.errors``, never recorded as a
        degradation."""
        from repro.errors import PXMLError

        interpreter = _fig2_interpreter()
        statements = [
            "PROJECT R.book.author FROM fig2 AS p",      # fig2 is a DAG
            "DIST R.book.author IN fig2",
            "SELECT R.book = B1 AND PROB > 0.99 FROM fig2 AS s",
        ]
        for text in statements:
            with pytest.raises(PXMLError):
                interpreter.execute(text)
        assert interpreter.metrics.counter("resilience.fallbacks").value == 0
        assert interpreter.metrics.counter("pxql.errors").value == 3
        assert not any(
            root.find("resilience.fallback")
            for root in interpreter.tracer.roots()
        )
        assert {"p", "s"}.isdisjoint(interpreter.database.names())

    def test_budget_errors_are_not_degraded(self, monkeypatch):
        interpreter = _ex52_interpreter()

        def explode(node, pi, col):
            raise BudgetExceeded("over budget")

        monkeypatch.setattr(interpreter.engine, "_apply_indexed", explode)
        with pytest.raises(BudgetExceeded):
            interpreter.execute("PROB B1 IN ex52")
        assert interpreter.metrics.counter("resilience.fallbacks").value == 0

    def test_catalog_errors_are_not_degraded(self):
        interpreter = _fig2_interpreter()
        from repro.storage.database import DatabaseError

        with pytest.raises(DatabaseError):
            interpreter.execute("PROB B1 IN nonexistent")
        assert interpreter.metrics.counter("resilience.fallbacks").value == 0


# ----------------------------------------------------------------------
# PXQL timeout surface
# ----------------------------------------------------------------------
class TestPXQLTimeouts:
    def test_parse_set_timeout(self):
        statement = parse("SET TIMEOUT 2.5")
        assert statement == ast.SetStatement("timeout", 2.5)

    def test_parse_with_timeout_suffix(self):
        statement = parse("PROB B1 IN fig2 WITH TIMEOUT 3")
        assert isinstance(statement, ast.TimeoutStatement)
        assert statement.seconds == 3.0
        assert isinstance(statement.statement, ast.ProbStatement)

    def test_parse_rejects_bad_timeouts(self):
        with pytest.raises(PXQLSyntaxError):
            parse("SET TIMEOUT -1")
        with pytest.raises(PXQLSyntaxError):
            parse("PROB B1 IN fig2 WITH TIMEOUT 0")

    def test_set_timeout_session_state(self):
        interpreter = _fig2_interpreter()
        result = interpreter.execute("SET TIMEOUT 5")
        assert result.value == 5.0
        assert interpreter._session_timeout_s == 5.0
        result = interpreter.execute("SET TIMEOUT 0")
        assert result.value is None
        assert interpreter._session_timeout_s is None

    def test_generous_timeout_passes(self):
        interpreter = _fig2_interpreter()
        value = interpreter.execute("PROB B1 IN fig2 WITH TIMEOUT 60").value
        assert value == pytest.approx(0.8)

    def test_tiny_timeout_trips_sampler(self):
        interpreter = _fig2_interpreter()
        interpreter.execute("SET TIMEOUT 0.0000001")
        with pytest.raises(BudgetExceeded) as info:
            interpreter.execute(
                "ESTIMATE R.book : B1 IN fig2 SAMPLES 200000"
            )
        assert info.value.limit == "deadline"

    def test_with_timeout_overrides_session(self):
        interpreter = _fig2_interpreter()
        interpreter.execute("SET TIMEOUT 0.0000001")
        # The per-statement override buys enough time.
        value = interpreter.execute(
            "PROB B1 IN fig2 WITH TIMEOUT 60"
        ).value
        assert value == pytest.approx(0.8)

    def test_profile_attaches_partial_span_tree(self):
        interpreter = _fig2_interpreter()
        interpreter.execute("SET TIMEOUT 0.0000001")
        with pytest.raises(BudgetExceeded) as info:
            interpreter.execute(
                "PROFILE ESTIMATE R.book : B1 IN fig2 SAMPLES 200000"
            )
        span = info.value.span
        assert span is not None
        assert span.name == "pxql.profile"

    def test_budget_exceeded_is_a_pxml_error(self):
        assert issubclass(BudgetExceeded, PXMLError)
