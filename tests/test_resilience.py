"""Unit tests for repro.resilience: budgets, retry, breaker, faults,
graceful engine degradation, and the PXQL timeout surface."""

import random

import pytest

from repro.errors import BudgetExceeded, FaultError, PXMLError
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.tracing import Tracer, use_tracer
from repro.paper import example52_instance, figure2_instance
from repro.pxql.interpreter import Interpreter
from repro.pxql.lexer import PXQLSyntaxError
from repro.pxql.parser import parse
from repro.pxql import ast
from repro.resilience import (
    Budget,
    CircuitBreaker,
    FaultInjector,
    FaultSpec,
    RetryPolicy,
    current_budget,
    fault_point,
    retry_call,
    use_budget,
)


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
# Circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        for _ in range(2):
            breaker.record_failure()
            assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_count(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_probe_then_close(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after_s=10.0, clock=clock
        )
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(11.0)
        assert breaker.allow()  # probe
        assert breaker.state == "half_open"
        breaker.record_success()
        assert breaker.state == "closed"

    def test_half_open_failure_retrips(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=5, reset_after_s=1.0, clock=clock
        )
        for _ in range(5):
            breaker.record_failure()
        clock.advance(2.0)
        assert breaker.allow()
        breaker.record_failure()  # a single half-open failure re-trips
        assert breaker.state == "open"
        assert breaker.trips == 2

    def test_trip_metrics(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            breaker = CircuitBreaker(
                name="unit", failure_threshold=1, clock=FakeClock()
            )
            breaker.record_failure()
        assert registry.counter("resilience.breaker_trips").value == 1.0
        assert registry.gauge("resilience.breaker_open.unit").value == 1.0


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
        with FaultInjector(FaultSpec("engine.cache.*", times=None)) as injector:
            with pytest.raises(FaultError):
                fault_point("engine.cache.results.get")
            with pytest.raises(FaultError):
                fault_point("engine.cache.results.put")
            fault_point("engine.other")  # no match
        assert injector.fired("engine.cache.*") == 2

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


def _break_optimizer(monkeypatch):
    def explode(plan, cost, rules):
        raise RuntimeError("optimizer bug")

    import repro.engine.executor as executor_module

    monkeypatch.setattr(executor_module, "optimize", explode)


class TestEngineDegradation:
    def test_optimizer_error_degrades_to_unoptimized_plan(self, monkeypatch):
        interpreter = _fig2_interpreter()
        _break_optimizer(monkeypatch)
        result = interpreter.execute("PROB B1 IN fig2")
        assert result.value == pytest.approx(0.8)
        assert interpreter.metrics.counter(
            "resilience.optimizer_errors"
        ).value >= 1.0

    def test_breaker_trips_after_repeated_optimizer_failures(self, monkeypatch):
        interpreter = _fig2_interpreter()
        engine = interpreter.engine
        _break_optimizer(monkeypatch)
        threshold = engine.breaker.failure_threshold
        for _ in range(threshold + 2):
            value = interpreter.execute("PROB B1 IN fig2").value
            assert value == pytest.approx(0.8)
        assert engine.breaker.state == "open"
        # Once open the optimizer is not consulted at all; queries keep
        # answering on the degraded path.
        value = interpreter.execute("EXISTS R.book IN fig2").value
        assert 0.0 <= value <= 1.0

    def test_cache_get_faults_never_fail_a_query(self):
        interpreter = _fig2_interpreter()
        with FaultInjector(
            FaultSpec("engine.cache.*", kind="error", times=None)
        ) as injector:
            value = interpreter.execute("PROB B1 IN fig2").value
        assert value == pytest.approx(0.8)
        assert injector.fired() >= 1
        assert interpreter.metrics.counter(
            "resilience.cache_errors"
        ).value >= 1.0

    def test_statement_falls_back_to_naive_path(self):
        """The fallback is a retry on the statement's plan as written,
        through the same engine (the test id is kept stable)."""
        interpreter = _fig2_interpreter()

        def explode(statement):
            raise RuntimeError("engine exploded")

        interpreter.engine.execute_statement = explode
        result = interpreter.execute("PROB B1 IN fig2")
        assert result.value == pytest.approx(0.8)
        assert len(interpreter.fallbacks) == 1
        label, error = interpreter.fallbacks[0]
        assert "PROB" in label and "exploded" in str(error)
        assert interpreter.metrics.counter(
            "resilience.fallbacks"
        ).value == 1.0
        assert interpreter.metrics.counter("engine.executions").value == 1.0
        assert interpreter.tracer.last.find("engine.node.Query[prob B1]") is not None

    def test_user_errors_are_not_fallbacks(self):
        """A statement that fails on its plan as written too is the
        user's error: raised, counted in ``pxql.errors``, never recorded
        as a degradation."""
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
        assert interpreter.fallbacks == []
        assert interpreter.metrics.counter("resilience.fallbacks").value == 0
        assert interpreter.metrics.counter("pxql.errors").value == 3
        assert not any(
            root.find("resilience.fallback")
            for root in interpreter.tracer.roots()
        )
        assert {"p", "s"}.isdisjoint(interpreter.database.names())

    def test_breaker_open_and_retry_take_the_same_path(self, monkeypatch):
        """Two triggers, one un-accelerated path: an open breaker and
        the interpreter's retry report the same ``NodeStats`` shapes."""
        statements = ["EXISTS R.book IN ex52", "PROJECT R.book FROM ex52 AS p",
                      "POINT R.book : B1 IN p"]

        def fresh():
            interpreter = Interpreter(check="off")
            interpreter.database.register("ex52", example52_instance())
            return interpreter

        def shapes(interpreter, entry):
            """Per statement, the NodeStats tree ``Engine.<entry>`` returned."""
            executed = []
            original = getattr(interpreter.engine, entry)

            def recording(plan):
                executed.append(original(plan))
                return executed[-1]

            monkeypatch.setattr(interpreter.engine, entry, recording)
            for text in statements:
                interpreter.execute(text)
            return [
                [(node.label, node.cache, node.strategy)
                 for node in execution.stats.walk()]
                for execution in executed
            ]

        tripped = fresh()
        for _ in range(tripped.engine.breaker.failure_threshold):
            tripped.engine.breaker.record_failure()
        assert tripped.engine.breaker.state == "open"

        retried = fresh()

        def explode(plan, generation):
            raise RuntimeError("prepare exploded")

        monkeypatch.setattr(retried.engine, "_prepare", explode)

        opened = shapes(tripped, "execute_plan")
        degraded = shapes(retried, "execute_as_written")
        assert len(retried.fallbacks) == len(statements)
        assert tripped.fallbacks == []
        assert opened == degraded
        for label, cache, strategy in (n for tree in opened for n in tree):
            assert strategy != "indexed"
            assert cache == ("scan" if label.startswith("Scan") else "off")
        # For contrast, the accelerated run of the same statement locates
        # its path on the snapshot and fills the caches.
        accelerated = shapes(fresh(), "execute_plan")[0]
        assert accelerated[0][2] == "indexed"
        assert accelerated[0][1] == "miss"

    def test_explain_under_an_open_breaker_reports_no_cache(self):
        """``EXPLAIN`` words the path the statement would take: peeked
        cache state while accelerated, ``cache=off`` as written."""
        interpreter = _fig2_interpreter()
        explain = "EXPLAIN EXISTS R.book IN fig2"
        assert "cache=cold" in interpreter.execute(explain).text
        interpreter.execute("EXISTS R.book IN fig2")
        closed = interpreter.execute(explain).text
        assert "cache=warm" in closed and "cache=off" not in closed

        breaker = interpreter.engine.breaker
        for _ in range(breaker.failure_threshold):
            breaker.record_failure()
        opened = interpreter.execute(explain).text
        assert "cache=off" in opened
        assert "cache=cold" not in opened and "cache=warm" not in opened

    def test_a_fresh_rewrite_closes_the_half_open_breaker(self):
        """A clean rewrite is a success of the guarded layer — every
        preparation runs one — so a repeating workload gets its
        accelerators back with the probe."""
        clock = FakeClock()
        interpreter = _fig2_interpreter()
        engine = interpreter.engine
        engine.breaker = CircuitBreaker(
            failure_threshold=1, reset_after_s=30.0, clock=clock
        )
        statement = "EXISTS R.book IN fig2"
        plan = engine.plan_statement(parse(statement))
        engine.execute_plan(plan)  # the result is cached from here
        engine.breaker.record_failure()
        assert engine.execute_plan(plan).stats.cache == "off"

        clock.advance(31.0)
        assert engine.execute_plan(plan).stats.cache == "hit"  # the probe
        assert engine.breaker.state == "closed"
        assert engine.execute_plan(plan).stats.cache == "hit"
        interpreter.execute(statement)
        interpreter.execute(statement)
        assert interpreter.cache_stats["statements"]["hits"] == 1

    def test_budget_errors_are_not_degraded(self):
        interpreter = _fig2_interpreter()

        def explode(statement):
            raise BudgetExceeded("over budget")

        interpreter.engine.execute_statement = explode
        with pytest.raises(BudgetExceeded):
            interpreter.execute("PROB B1 IN fig2")
        assert interpreter.fallbacks == []

    def test_catalog_errors_are_not_degraded(self):
        interpreter = _fig2_interpreter()
        from repro.storage.database import DatabaseError

        with pytest.raises(DatabaseError):
            interpreter.execute("PROB B1 IN nonexistent")
        assert interpreter.fallbacks == []


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
