"""Tests for repro.obs: tracing, metrics, exporters, slow log, PROFILE, CLI."""

import json
import threading

import pytest

from repro.core.builder import InstanceBuilder
from repro.errors import PXMLError
from repro.io.json_codec import write_instance
from repro.obs import (
    MetricError,
    MetricsRegistry,
    SlowQueryLog,
    Tracer,
    current_registry,
    current_tracer,
    global_registry,
    global_tracer,
    metrics_to_json,
    render_metrics,
    render_span_tree,
    spans_to_jsonl,
    use_registry,
    use_tracer,
    write_metrics_json,
    write_spans_jsonl,
)
from repro.pxql import Interpreter
from repro.storage.database import Database


def small_instance(root="R", leaf="A", p=0.6):
    b = InstanceBuilder(root)
    b.children(root, "x", [leaf])
    b.opf(root, {(leaf,): p, (): 1 - p})
    b.leaf(leaf, "t", ["v"], {"v": 1.0})
    return b.build()


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class TestTracer:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child-a"):
                with tracer.span("grand"):
                    pass
            with tracer.span("child-b"):
                pass
        assert [c.name for c in root.children] == ["child-a", "child-b"]
        assert root.children[0].children[0].name == "grand"
        assert tracer.last is root

    def test_parent_ids_and_unique_span_ids(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                pass
        assert root.parent_id is None
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id

    def test_timings_fill_on_exit(self):
        tracer = Tracer()
        with tracer.span("timed") as span:
            assert span.wall_s == 0.0
            sum(range(1000))
        assert span.wall_s > 0.0
        assert span.cpu_s >= 0.0

    def test_error_status_and_propagation(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer") as outer:
                with tracer.span("inner") as inner:
                    raise ValueError("boom")
        assert inner.status == "error"
        assert outer.status == "error"
        assert tracer.active is None       # the stack unwound
        assert tracer.last is outer        # the tree was still kept

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("root") as span:
            with tracer.span("child"):
                pass
        assert span.children == []          # nothing attached
        assert tracer.roots() == []

    def test_event_attaches_to_active_span(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            tracer.event("fired", 0.001, rule="r1")
        (event,) = root.children
        assert event.name == "fired"
        assert event.wall_s == pytest.approx(0.001)
        assert event.attributes["rule"] == "r1"

    def test_event_attribute_may_be_called_name(self):
        # `name` is positional-only exactly so instrumented code can
        # attach a `name=...` attribute (the catalog does).
        tracer = Tracer()
        span = tracer.event("db.version", name="bib", version=3)
        assert span.attributes == {"name": "bib", "version": 3}

    def test_capacity_bounds_finished_roots(self):
        tracer = Tracer(capacity=2)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert [s.name for s in tracer.roots()] == ["s3", "s4"]

    def test_take_drains(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        assert [s.name for s in tracer.take()] == ["a"]
        assert tracer.roots() == []

    def test_walk_find_and_self_time(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("leaf"):
                pass
        assert [s.name for s in root.walk()] == ["root", "leaf"]
        assert root.find("leaf").name == "leaf"
        assert root.self_s == pytest.approx(
            root.wall_s - root.children[0].wall_s
        )


class TestAmbientContext:
    def test_defaults_to_globals(self):
        assert current_tracer() is global_tracer()
        assert current_registry() is global_registry()

    def test_global_tracer_starts_disabled(self):
        assert global_tracer().enabled is False

    def test_use_tracer_rebinds_and_restores(self):
        mine = Tracer()
        with use_tracer(mine):
            assert current_tracer() is mine
        assert current_tracer() is global_tracer()

    def test_use_registry_rebinds_and_restores(self):
        mine = MetricsRegistry()
        with use_registry(mine):
            current_registry().counter("x").inc()
        assert mine.value("x") == 1
        assert current_registry() is global_registry()


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(3)
        assert registry.value("hits") == 4

    def test_counter_rejects_negative(self):
        with pytest.raises(MetricError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("size")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(4)
        assert registry.value("size") == 3

    def test_histogram_counts_mean_and_quantile(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.mean == pytest.approx((0.5 + 1.5 + 3.0 + 100.0) / 4)
        # rank 2 is the whole of bucket (1, 2], which holds one value
        assert histogram.quantile(0.5) == pytest.approx(2.0)
        assert histogram.quantile(1.0) == float("inf")  # overflow bucket

    def test_quantile_interpolates_inside_the_bucket(self):
        """Regression: the quantile was the bucket's upper bound, so
        1.1 .. 2.4 ms (all in (1, 2.5] ms) reported p50 = 2.5 ms."""
        histogram = MetricsRegistry().histogram("lat")
        for tenths in range(11, 25):
            histogram.observe(tenths / 10_000)
        assert histogram.quantile(0.5) == pytest.approx(0.00175, rel=0.01)
        assert histogram.quantile(0.0) == pytest.approx(0.001)
        assert histogram.quantile(1.0) == pytest.approx(0.0025)

    def test_kind_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(MetricError):
            registry.gauge("m")
        registry.counter("m")  # the lock-free hit path
        with pytest.raises(MetricError):
            registry.gauge("m")
        with pytest.raises(MetricError):
            registry.histogram("m")

    def test_lookup_returns_the_registered_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")
        assert len(registry) == 3

    def test_first_use_from_many_threads_makes_one_instrument(self):
        registry = MetricsRegistry()
        start = threading.Barrier(8)

        def hammer():
            start.wait()
            for _ in range(10_000):
                registry.counter("n").inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.names() == ["n"]
        assert registry.value("n") == 80_000

    def test_as_dict_and_names(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.gauge("b").set(2)
        registry.histogram("c").observe(0.1)
        assert registry.names() == ["a", "b", "c"]
        dumped = registry.as_dict()
        assert dumped["a"]["kind"] == "counter"
        assert dumped["b"]["kind"] == "gauge"
        assert dumped["c"]["kind"] == "histogram"
        json.dumps(dumped)  # stays JSON-serializable

    def test_clear(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.clear()
        assert registry.names() == []


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class TestExporters:
    def _tree(self):
        tracer = Tracer()
        with tracer.span("root", key="value") as root:
            with tracer.span("child"):
                pass
        return root

    def test_render_span_tree(self):
        text = render_span_tree(self._tree())
        assert "root" in text
        assert "└─ child" in text
        assert "key=value" in text

    def test_spans_to_jsonl_one_line_per_span(self):
        lines = spans_to_jsonl([self._tree()]).splitlines()
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["name"] == "root"
        assert parsed[1]["parent_id"] == parsed[0]["span_id"]

    def test_write_spans_jsonl(self, tmp_path):
        path = write_spans_jsonl([self._tree()], tmp_path / "spans.jsonl")
        assert len(path.read_text().splitlines()) == 2

    def test_metrics_text_and_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("requests").inc(7)
        registry.histogram("lat").observe(0.01)
        text = render_metrics(registry)
        assert "requests = 7" in text
        assert "lat:" in text
        loaded = json.loads(metrics_to_json(registry))
        assert loaded["requests"]["value"] == 7
        path = write_metrics_json(registry, tmp_path / "sub" / "m.json")
        assert json.loads(path.read_text())["requests"]["value"] == 7

    def test_render_empty_registry(self):
        assert render_metrics(MetricsRegistry()) == "(no metrics)"


# ----------------------------------------------------------------------
# Slow-query log
# ----------------------------------------------------------------------
class TestSlowQueryLog:
    def test_threshold_filters(self):
        log = SlowQueryLog(threshold_s=0.1)
        assert log.observe("fast", 0.05) is None
        record = log.observe("slow", 0.2)
        assert record is not None
        assert [r.statement for r in log.records()] == ["slow"]

    def test_zero_threshold_records_everything(self):
        log = SlowQueryLog(threshold_s=0.0)
        log.observe("any", 0.0)
        assert len(log) == 1

    def test_capacity_is_a_ring(self):
        log = SlowQueryLog(threshold_s=0.0, capacity=2)
        for index in range(4):
            log.observe(f"s{index}", 0.0)
        assert [r.statement for r in log.records()] == ["s2", "s3"]

    def test_record_rendering_and_dict(self):
        log = SlowQueryLog(threshold_s=0.0)
        record = log.observe("POINT R.x : A IN bib", 0.5)
        assert "POINT R.x : A IN bib" in str(record)
        assert record.to_dict()["wall_s"] == 0.5

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            SlowQueryLog(threshold_s=-1.0)


# ----------------------------------------------------------------------
# Interpreter integration: statement spans, slow log, PROFILE
# ----------------------------------------------------------------------
def sum_consistent(span, rel_tol=0.25, abs_tol=5e-3):
    """Children's wall times never exceed their parent's (tolerantly)."""
    for node in span.walk():
        if node.children:
            child_total = sum(c.wall_s for c in node.children)
            assert child_total <= node.wall_s * (1 + rel_tol) + abs_tol, (
                f"{node.name}: children sum {child_total} > own {node.wall_s}"
            )


class TestInterpreterObservability:
    @pytest.fixture
    def interpreter(self):
        it = Interpreter(Database(), slow_query_s=0.0)
        it.database.register("bib", small_instance())
        return it

    def test_every_statement_becomes_a_root_span(self, interpreter):
        interpreter.execute("POINT R.x : A IN bib")
        span = interpreter.tracer.last
        assert span.name == "pxql.statement"
        assert span.attributes["kind"] == "PointStatement"
        assert span.find("engine.execute_plan") is not None
        assert span.find("query.point") is not None

    def test_statement_metrics_and_slow_log(self, interpreter):
        interpreter.execute("POINT R.x : A IN bib")
        interpreter.execute("LIST")
        assert interpreter.metrics.value("pxql.statements") == 2
        assert interpreter.metrics.get("pxql.statement_s").count == 2
        # threshold 0.0 records everything
        assert len(interpreter.slow_log) == 2

    def test_errors_are_counted_and_marked(self):
        # check="off" lets the failure happen at execution time, inside
        # the statement span (check="error" raises before a span opens).
        it = Interpreter(Database(), check="off")
        with pytest.raises(PXMLError):
            it.execute("SHOW missing")
        assert it.metrics.value("pxql.errors") == 1
        assert it.tracer.last.status == "error"
        assert it.metrics.value("pxql.statements") == 0

    def test_profile_returns_span_tree(self, interpreter):
        result = interpreter.execute("PROFILE POINT R.x : A IN bib")
        root = result.value
        assert root.name == "pxql.profile"
        assert root.find("engine.execute_plan") is not None
        assert "pxql.profile" in result.text
        assert interpreter.metrics.value("pxql.profiles") == 1

    def test_profile_sum_consistency_cold_and_warm(self, interpreter):
        cold = interpreter.execute("PROFILE SELECT R.x = A FROM bib AS s1")
        sum_consistent(cold.value)
        warm = interpreter.execute("PROFILE SELECT R.x = A FROM bib AS s2")
        sum_consistent(warm.value)
        # no result is kept between statements: the warm run executes
        # the same plan nodes again
        def nodes(profile):
            return [
                s.name for s in profile.value.walk()
                if s.name.startswith("engine.node.")
            ]

        assert nodes(warm) == nodes(cold) != []

    def test_profile_rejects_non_executable(self, interpreter):
        for bad in (
            "PROFILE EXPLAIN POINT R.x : A IN bib",
            "PROFILE CHECK LIST",
            "PROFILE PROFILE LIST",
        ):
            with pytest.raises(PXMLError):
                interpreter.execute(bad)

    def test_profile_side_effects_still_happen(self, interpreter):
        interpreter.execute("PROFILE PROJECT R.x FROM bib AS projected")
        assert "projected" in interpreter.database

    def test_db_version_events_in_statement_span(self, interpreter):
        interpreter.execute("PROJECT R.x FROM bib AS p")
        span = interpreter.tracer.last
        assert span.find("db.version") is not None

    def test_sampling_metrics(self, interpreter):
        interpreter.execute("ESTIMATE R.x IN bib SAMPLES 50")
        assert interpreter.metrics.value("sampling.worlds_sampled") == 50
        assert interpreter.tracer.last.find("sampling.estimate") is not None


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestObsCLI:
    @pytest.fixture
    def script_dir(self, tmp_path):
        write_instance(small_instance(), tmp_path / "bib.pxml.json")
        (tmp_path / "script.pxql").write_text(
            "# a comment\n"
            "POINT R.x : A IN bib\n"
            "\n"
            "PROFILE EXISTS R.x IN bib\n"
        )
        return tmp_path

    def test_trace_text(self, script_dir, capsys):
        from repro.obs.__main__ import main

        code = main(["trace", str(script_dir / "script.pxql")])
        out = capsys.readouterr().out
        assert code == 0
        assert "pxql.statement" in out
        assert "engine.execute_plan" in out
        assert "== metrics ==" in out
        assert "pxql.statements = 2" in out

    def test_trace_jsonl(self, script_dir, capsys):
        from repro.obs.__main__ import main

        code = main(["trace", "--format", "jsonl",
                     str(script_dir / "script.pxql")])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert any(entry["name"] == "pxql.statement" for entry in parsed)

    def test_trace_writes_artifacts(self, script_dir, tmp_path, capsys):
        from repro.obs.__main__ import main

        metrics_path = tmp_path / "out" / "metrics.json"
        spans_path = tmp_path / "out" / "spans.jsonl"
        code = main([
            "trace", str(script_dir / "script.pxql"),
            "--metrics", str(metrics_path), "--spans", str(spans_path),
        ])
        assert code == 0
        assert "pxql.statements" in json.loads(metrics_path.read_text())
        assert spans_path.read_text().strip()

    def test_trace_missing_script(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        assert main(["trace", str(tmp_path / "nope.pxql")]) == 2

    def test_trace_bad_statement_fails(self, script_dir, capsys):
        (script_dir / "bad.pxql").write_text("SHOW missing\n")
        from repro.obs.__main__ import main

        assert main(["trace", str(script_dir / "bad.pxql")]) == 1
