"""Tests for the LRU caches, versioned invalidation, and observability."""

import gc
import weakref

import pytest

from repro.check.dataguide import guide_of
from repro.core.builder import InstanceBuilder
from repro.engine import Engine, LRUCache, PlanBuilder
from repro.index import snapshot_of
from repro.obs.export import node_spans
from repro.obs.tracing import Tracer, use_tracer
from repro.pxql import Interpreter
from repro.queries.engine import QueryEngine
from repro.storage.database import Database, DatabaseError
from repro.storage.derived import cache_token, fetch


def small_instance(root="R", leaf="A", p=0.6, label="x"):
    b = InstanceBuilder(root)
    b.children(root, label, [leaf])
    b.opf(root, {(leaf,): p, (): 1 - p})
    b.leaf(leaf, "t", ["v"], {"v": 1.0})
    return b.build()


class TestLRUCache:
    def test_hit_and_miss_counters(self):
        cache = LRUCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        stats = cache.stats
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.size == 1

    def test_capacity_evicts_oldest(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.get("a") is None
        assert cache.get("b") == 2
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_get_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # now "b" is the least recently used
        cache.put("c", 3)
        assert cache.get("a") == 1
        assert cache.get("b") is None

    def test_peek_does_not_touch_counters_or_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a")
        assert not cache.peek("zzz")
        stats = cache.stats
        assert stats.hits == 0
        assert stats.misses == 0
        cache.put("c", 3)       # "a" was only peeked, so it is still LRU
        assert not cache.peek("a")

    def test_clear_drops_entries_keeps_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert not cache.peek("a")
        assert cache.stats.size == 0
        assert cache.stats.hits == 1

    def test_stats_rendering(self):
        cache = LRUCache(8)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        text = str(cache.stats)
        assert "1 hits" in text
        assert "1 misses" in text
        assert "1/8 entries" in text


class TestDatabaseNames:
    @pytest.mark.parametrize("bad", [
        "", ".", "..", "a/b", "a\\b", "../escape", "x/../y", "a..b",
    ])
    def test_invalid_names_rejected_on_register(self, bad):
        db = Database()
        with pytest.raises(DatabaseError):
            db.register(bad, small_instance())

    @pytest.mark.parametrize("bad", ["a/b", "..", "../x"])
    def test_invalid_names_rejected_on_get_and_drop(self, bad):
        db = Database()
        with pytest.raises(DatabaseError):
            db.get(bad)
        with pytest.raises(DatabaseError):
            db.drop(bad)

    def test_invalid_name_rejected_on_save(self, tmp_path):
        db = Database(tmp_path)
        with pytest.raises(DatabaseError):
            db.save("../evil")

    def test_valid_names_fine(self):
        db = Database()
        db.register("bib-2.json_ok", small_instance())
        assert "bib-2.json_ok" in db


class TestDatabaseVersions:
    def test_register_assigns_monotone_versions(self):
        db = Database()
        db.register("a", small_instance())
        db.register("b", small_instance("S", "B"))
        va, vb = db.version("a"), db.version("b")
        assert vb > va
        assert db.version("a") == va  # stable until mutation

    def test_reregister_bumps(self):
        db = Database()
        db.register("a", small_instance())
        before = db.version("a")
        db.register("a", small_instance(p=0.5), replace=True)
        assert db.version("a") > before

    def test_unknown_names_raise(self):
        db = Database()
        with pytest.raises(DatabaseError):
            db.version("nope")

    def test_drop_forgets_the_version(self):
        db = Database()
        db.register("a", small_instance())
        db.drop("a")
        with pytest.raises(DatabaseError):
            db.version("a")


class TestEngineResultCache:
    """The one result cache is the interpreter's statement tier; the
    engine under it keeps nothing between executions.  (Named when the
    engine had a sub-plan result tier of its own.)"""

    @pytest.fixture
    def database(self):
        db = Database()
        db.register("bib", small_instance())
        return db

    @staticmethod
    def _interpreter(database):
        return Interpreter(database=database)

    def test_repeated_plan_hits(self, database):
        interp = self._interpreter(database)
        interp.execute("EXISTS R.x IN bib")
        assert interp.cache_stats["statements"]["hits"] == 0
        interp.execute("EXISTS R.x IN bib")
        assert interp.cache_stats["statements"]["hits"] == 1
        assert interp.metrics.value("engine.executions") == 1

    def test_hit_returns_equal_value_and_marks_stats(self, database):
        """Re-executing a plan computes it again: the same value and
        the same per-node shape, each time from the scan up."""
        engine = Engine(database)
        plan = PlanBuilder.scan("bib").select("R.x", "A").build()
        cold = engine.execute_plan(plan)
        warm = engine.execute_plan(plan)
        def shape(execution):
            return [
                (n.name, n.attributes.get("objects"),
                 n.attributes.get("strategy"))
                for n in node_spans(execution.span)
            ]

        assert shape(warm) == shape(cold)
        assert warm.value.objects == cold.value.objects
        assert warm.span.attributes["condition_probability"] == pytest.approx(
            cold.span.attributes["condition_probability"]
        )
        assert engine.metrics.value("engine.objects_scanned") == 2 * len(
            database.get("bib")
        )

    def test_copy_on_hit_protects_the_cache(self, database):
        engine = Engine(database)
        plan = PlanBuilder.scan("bib").project("R.x").build()
        first = engine.execute_plan(plan).value
        second = engine.execute_plan(plan).value
        assert second is not first

    def test_reregistration_invalidates(self, database):
        interp = self._interpreter(database)
        assert interp.execute("POINT R.x : A IN bib").value == pytest.approx(0.6)
        database.register("bib", small_instance(p=0.9), replace=True)
        assert interp.execute("POINT R.x : A IN bib").value == pytest.approx(0.9)
        assert interp.cache_stats["statements"]["hits"] == 0

    def test_caching_off(self, database):
        """Off is the only setting: there is no option, and no state."""
        with pytest.raises(TypeError):
            Engine(database, caching=True)
        engine = Engine(database)
        assert not hasattr(engine, "result_cache")
        assert not hasattr(engine, "cache_stats")

    def test_query_values_cached(self, database):
        interp = self._interpreter(database)
        cold = interp.execute("POINT R.x : A IN bib")
        warm = interp.execute("POINT R.x : A IN bib")
        assert interp.cache_stats["statements"]["hits"] == 1
        assert warm.value == pytest.approx(cold.value)

    @staticmethod
    def _product_plan(database):
        database.register("other", small_instance(root="S", leaf="B"))
        return (
            PlanBuilder.scan("bib").project("R.x")
            .product(PlanBuilder.scan("other").project("S.x"), new_root="P")
            .build()
        )

    @staticmethod
    def _state(engine, plan):
        return (
            engine.metrics.value("engine.executions"),
            engine.metrics.value("engine.objects_scanned"),
            engine.cost.estimate(plan),
        )

    def test_prepare_is_pure(self, database):
        engine = Engine(database)
        plan = self._product_plan(database)
        before = self._state(engine, plan)
        first = engine.prepare(plan)
        assert engine.prepare(plan) == first
        assert self._state(engine, plan) == before

    def test_explain_writes_nothing(self, database):
        engine = Engine(database)
        plan = self._product_plan(database)
        before = self._state(engine, plan)
        assert engine.explain(plan) == engine.explain(plan)
        assert self._state(engine, plan) == before


class TestInterpreterCaching:
    def test_repeated_statement_hits_result_cache(self):
        """An algebra statement is executed every time (it registers a
        result); a read of its result enters the statement tier."""
        interp = Interpreter()
        interp.database.register("bib", small_instance())
        interp.execute("PROJECT R.x FROM bib AS p")
        interp.execute("PROJECT R.x FROM bib AS p2")
        assert interp.metrics.value("engine.executions") == 2
        interp.execute("EXISTS R.x IN p2")
        interp.execute("EXISTS R.x IN p2")
        assert interp.cache_stats["statements"]["hits"] == 1

    def test_query_statement_caches(self):
        interp = Interpreter()
        interp.database.register("bib", small_instance())
        one = interp.execute("POINT R.x : A IN bib")
        two = interp.execute("POINT R.x : A IN bib")
        assert one.value == pytest.approx(two.value)
        # The repeat is answered above the engine: it counts in the
        # statement tier, and the engine is never asked.
        assert interp.cache_stats["statements"]["hits"] == 1
        assert interp.metrics.value("engine.executions") == 1

    def test_mutation_invalidates_across_statements(self):
        interp = Interpreter()
        interp.database.register("bib", small_instance(p=0.6))
        first = interp.execute("POINT R.x : A IN bib")
        assert first.value == pytest.approx(0.6)
        interp.database.register("bib", small_instance(p=0.25), replace=True)
        second = interp.execute("POINT R.x : A IN bib")
        assert second.value == pytest.approx(0.25)


class TestQueryEngineStats:
    """A query's record is its ``query.<kind>`` span."""

    def test_point_records_strategy_and_time(self):
        engine = QueryEngine(small_instance(), strategy="local")
        with use_tracer(Tracer()) as tracer:
            engine.point("R.x", "A")
        span = tracer.last
        assert span.name == "query.point"
        assert span.attributes["strategy"] == "local"
        assert span.wall_s >= 0.0

    def test_sample_records_count_and_stderr(self):
        engine = QueryEngine(small_instance(), strategy="sample",
                             samples=500, seed=7)
        with use_tracer(Tracer()) as tracer:
            engine.exists("R.x")
        assert tracer.last.attributes["samples"] == 500
        assert tracer.last.attributes["stderr"] >= 0.0

    def test_each_query_kind_updates(self):
        engine = QueryEngine(small_instance(), strategy="local")
        with use_tracer(Tracer()) as tracer:
            engine.exists("R.x")
            assert tracer.last.name == "query.exists"
            engine.chain(["R", "A"])
            assert tracer.last.name == "query.chain"
            engine.object_exists("A")
            assert tracer.last.name == "query.object_exists"


class TestCacheHitStatsRegression:
    """Regressions for the two cache-hit aliasing bugs, held on the one
    result cache (the statement tier).

    The bugs were a hit that aliased the cached entry's live objects (so
    every hit shared them and re-reported the original work) and a
    dict-valued hit handed out as a shallow copy (so mutating a nested
    value corrupted the cache).
    """

    DIST = "DIST R.x IN bib"

    @pytest.fixture
    def interp(self):
        interp = Interpreter()
        interp.database.register("bib", small_instance())
        return interp

    @staticmethod
    def _statement_spans(interp):
        return [
            span for span in interp.tracer.roots()
            if span.name == "pxql.statement"
        ]

    def test_warm_descendants_marked_hit_with_zero_wall(self, interp):
        interp.execute(self.DIST)
        interp.execute(self.DIST)
        cold, warm = self._statement_spans(interp)
        assert warm.attributes["cache"] == "statement"
        # Nothing below the hit re-executed: no engine span under it.
        assert list(cold.walk())[1:]
        assert list(warm.walk()) == [warm]

    def test_warm_wall_time_not_double_counted(self, interp):
        interp.execute(self.DIST)
        interp.execute(self.DIST)
        cold, warm = self._statement_spans(interp)
        assert warm.wall_s < cold.wall_s

    def test_consecutive_hits_do_not_alias_stats(self, interp):
        interp.execute(self.DIST)
        first = interp.execute(self.DIST)
        second = interp.execute(self.DIST)
        assert interp.cache_stats["statements"]["hits"] == 2
        assert second.value == first.value
        assert second.value is not first.value

    def test_mutating_miss_stats_cannot_poison_later_hits(self, interp):
        cold = interp.execute(self.DIST)
        expected = dict(cold.value)
        cold.value["poison"] = True
        assert interp.execute(self.DIST).value == expected

    def test_caching_on_off_identical_values_and_object_counts(self, interp):
        """A hit, a bypass of the tier and the walked reference agree."""
        from repro.pxql import parse

        interp.execute(self.DIST)
        hit = interp.execute(self.DIST).value
        bypassed = interp.execute(f"{self.DIST} WITH TIMEOUT 5").value
        walked = interp.engine.execute_as_written(
            interp.engine.plan_statement(parse(self.DIST))
        ).value
        assert hit == bypassed == walked
        analyzed = interp.execute(f"EXPLAIN ANALYZE {self.DIST}").text
        assert "cache=" not in analyzed

    def test_dict_hit_mutation_does_not_corrupt_cache(self, interp):
        cold = dict(interp.execute(self.DIST).value)
        first = interp.execute(self.DIST)
        first.value[0] = 0.999                 # caller mauls the hit
        second = interp.execute(self.DIST)
        assert second.value == cold
        assert second.value is not first.value

    def test_seeded_nested_dict_hit_is_deep_copied(self, interp):
        from repro.pxql import parse
        from repro.pxql.interpreter import Result, _Answer

        token = cache_token(interp.database, "bib")
        interp._statements.put(self.DIST, interp.check, _Answer(
            parse(self.DIST), token, (), Result({"a": {"b": 1}}, None, "")
        ), interp.tracer, interp.metrics)
        first = interp.execute(self.DIST).value
        first["a"]["b"] = 999                  # nested mutation
        assert interp.execute(self.DIST).value == {"a": {"b": 1}}

    def test_engine_metrics_match_cache_counters(self, interp):
        for text in (self.DIST, self.DIST, "POINT R.x : A IN bib",
                     "POINT R.x : A IN bib"):
            interp.execute(text)
        stats = interp._statements.stats
        assert stats.hits > 0 and stats.misses > 0
        assert interp.metrics.value("pxql.cache.statements.hits") == stats.hits
        assert interp.metrics.value(
            "pxql.cache.statements.misses"
        ) == stats.misses
        assert interp.metrics.value("pxql.cache.statements.size") == stats.size


class TestGenerationKeyedCache:
    """``Engine.cache_key`` carries each scanned name's catalog token:
    a sibling process's mutation of *that name* moves it, its mutation
    of another name does not, restarts over an unchanged directory
    reuse, in-memory databases key exactly as before."""

    @staticmethod
    def _served(tmp_path):
        db_a = Database(tmp_path)
        db_a.register("bib", small_instance())
        db_a.save("bib")
        engine = Engine(db_a)
        plan = PlanBuilder.scan("bib").point("R.x", "A").build()
        engine.execute_plan(plan)
        return engine, plan

    def test_sibling_mutation_of_another_name_leaves_the_key(self, tmp_path):
        engine, plan = self._served(tmp_path)
        key_before = engine.cache_key(plan)

        # A second Database over the same directory stands in for a
        # sibling process; its save bumps the shared generation.
        db_b = Database(tmp_path)
        db_b.register("other", small_instance(root="S", leaf="B"))
        db_b.save("other")

        assert engine.database.generation() > 1
        assert engine.cache_key(plan) == key_before
        # ``bib`` was not written: its in-memory copy still answers.
        assert engine.execute_plan(plan).value == pytest.approx(0.6)

    def test_sibling_process_mutation_moves_the_key(self, tmp_path):
        engine, plan = self._served(tmp_path)
        key_before = engine.cache_key(plan)
        cold = engine.execute_plan(plan).value

        db_b = Database(tmp_path)
        db_b.register("bib", small_instance(p=0.9), replace=True)
        db_b.save("bib")

        assert engine.cache_key(plan) != key_before
        # The scan reads the new file.
        fresh = engine.execute_plan(plan)
        assert fresh.value != cold
        assert fresh.value == pytest.approx(0.9)

    def test_restart_over_unchanged_directory_reuses_the_key(self, tmp_path):
        db_a = Database(tmp_path)
        db_a.register("bib", small_instance())
        db_a.save("bib")
        plan = PlanBuilder.scan("bib").point("R.x", "A").build()
        key_first = Engine(db_a).cache_key(plan)

        # A fresh Database + Engine over the same directory (a restarted
        # shard) computes the identical key: cached artifacts persist
        # conceptually across the restart.
        db_b = Database(tmp_path)
        key_second = Engine(db_b).cache_key(plan)
        assert key_first == key_second

    def test_in_memory_database_reports_generation_zero(self):
        database = Database()
        database.register("bib", small_instance())
        assert database.generation() == 0
        engine = Engine(database)
        plan = PlanBuilder.scan("bib").point("R.x", "A").build()
        _fingerprint, tokens = engine.cache_key(plan)
        assert tokens == (("bib", (database.version("bib"), 0)),)


class TestPerNameEpoch:
    """A write to one name leaves every other name's derived state
    standing; a foreign write to a name always moves that name's token;
    what cannot be attributed to a name moves them all."""

    @pytest.fixture
    def served(self, tmp_path):
        """A catalog object with warm derived state for two names."""
        database = Database(tmp_path)
        database.register("bib", small_instance())
        database.register("lib", small_instance(root="L", leaf="M"))
        database.save("bib")
        database.save("lib")
        engine = Engine(database)
        plan = PlanBuilder.scan("bib").point("R.x", "A").build()
        built = self._derived(database, engine, plan)
        return database, engine, plan, built

    @staticmethod
    def _derived(database, engine, plan):
        """Everything derived from what ``bib`` maps to right now: the
        key, and the snapshot and guide kept on the instance a scan
        reads."""
        bib = fetch(database, "bib")
        return engine.cache_key(plan), [snapshot_of("bib", bib), guide_of(bib)]

    @staticmethod
    def _standing(now, built):
        return now[0] == built[0] and all(
            new is old for new, old in zip(now[1], built[1])
        )

    @staticmethod
    def _all_moved(now, built):
        return now[0] != built[0] and not any(
            new is old for new, old in zip(now[1], built[1])
        )

    def test_unrelated_foreign_save_leaves_everything_standing(
        self, served, tmp_path
    ):
        database, engine, plan, built = served
        sibling = Database(tmp_path)
        sibling.register("lib", small_instance(root="L", leaf="N"), replace=True)
        sibling.save("lib")
        sibling.register("new", small_instance(root="S", leaf="B"))
        sibling.save("new")
        assert self._standing(
            self._derived(database, engine, plan), built
        )
        assert cache_token(database, "lib")[1] == database.generation() - 1

    def test_foreign_save_of_the_name_moves_everything(self, served, tmp_path):
        database, engine, plan, built = served
        sibling = Database(tmp_path)
        sibling.register("bib", small_instance(p=0.9), replace=True)
        sibling.save("bib")
        assert self._all_moved(
            self._derived(database, engine, plan), built
        )
        assert cache_token(database, "bib")[1] == database.generation()

    def test_foreign_save_is_answered_from_the_new_file(self, tmp_path):
        """A sibling process replaces ``bib``: the clean in-memory copy
        must not answer again — not on the next statement, not on its
        repeat, not after a restart."""
        statement = "EXISTS R.x IN bib"
        database = Database(tmp_path)
        database.register("bib", small_instance(p=0.5))
        database.save("bib")
        first = Interpreter(database=database)
        assert first.execute(statement).value == 0.5

        sibling = Database(tmp_path)
        sibling.register("bib", small_instance(p=0.9), replace=True)
        sibling.save("bib")

        assert first.execute(statement).value == 0.9
        assert first.execute(statement).value == 0.9
        restarted = Interpreter(database=Database(tmp_path))
        assert restarted.execute(statement).value == 0.9

    @pytest.mark.parametrize("absint", [True, False], ids=["absint", "no-absint"])
    def test_foreign_save_of_a_derived_name_is_read_from_the_new_file(
        self, tmp_path, absint
    ):
        """A sibling process saves a different ``m``: a statement over
        ``m`` reads the new file, even with no checker and no certificate
        pass to observe the sibling's generation first."""
        database = Database(tmp_path)
        database.register("bib", small_instance(p=0.5))
        database.save("bib")
        interp = Interpreter(database, check="off")
        interp.engine.absint = absint
        interp.execute("PROJECT R.x FROM bib AS m")
        interp.execute("SAVE m")

        sibling = Database(tmp_path)
        sibling.register("m", small_instance(p=0.9), replace=True)
        sibling.save("m")

        interp.execute("PROJECT R.x FROM m AS y2")
        assert interp.execute("EXISTS R.x IN y2").value == pytest.approx(0.9)

    @staticmethod
    def _stale_reader(tmp_path, **options):
        """An interpreter that has read ``bib`` (``R.x`` only), after a
        sibling saved a ``bib`` with an ``R.y`` path the served copy
        lacks; and the answer a fresh server gives."""
        database = Database(tmp_path)
        database.register("bib", small_instance(p=0.5))
        database.save("bib")
        served = Interpreter(database, **options)
        assert served.execute("EXISTS R.x IN bib").value == 0.5

        sibling = Database(tmp_path)
        sibling.register("bib", small_instance(p=0.9, label="y"), replace=True)
        sibling.save("bib")
        fresh = Interpreter(Database(tmp_path))
        return served, fresh.execute("EXISTS R.y IN bib").value

    def test_a_derivation_then_a_read_sees_the_foreign_save(self, tmp_path):
        """The checker's scan reads the name's token before its
        instance: what it certifies from is the new file, not the copy
        the token's move evicts."""
        served, expected = self._stale_reader(tmp_path)
        assert expected == pytest.approx(0.9)
        served.execute("PROJECT R.y FROM bib AS v")
        assert served.execute("EXISTS R.y IN bib").value == pytest.approx(expected)
        assert served.execute("EXISTS R.y IN v").value == pytest.approx(expected)

    def test_a_read_under_a_session_timeout_sees_the_foreign_save(
        self, tmp_path
    ):
        served, expected = self._stale_reader(tmp_path)
        served.execute("SET TIMEOUT 30")
        assert served.execute("EXISTS R.y IN bib").value == pytest.approx(expected)

    def test_an_unchecked_certified_read_sees_the_foreign_save(self, tmp_path):
        """No checker, but the engine's certificate pass: its scan is
        the first to read ``bib`` (a read with a deadline takes no
        statement-tier token first)."""
        served, expected = self._stale_reader(tmp_path, check="off")
        assert served.engine.absint
        assert served.execute(
            "EXISTS R.y IN bib WITH TIMEOUT 30"
        ).value == pytest.approx(expected)

    def test_foreign_save_leaves_a_dirty_copy_authoritative(
        self, served, tmp_path
    ):
        database, _engine, _plan, _built = served
        interp = Interpreter(database=database)
        database.register("bib", database.get("bib"), replace=True)  # unsaved
        mine = database.get("bib")
        Database(tmp_path).save("bib")
        interp.execute("EXISTS R.x IN bib")  # observes the sibling's save
        assert database.get("bib") is mine

    def test_foreign_drop_of_the_name_moves_its_token(self, served, tmp_path):
        database, _engine, _plan, _built = served
        before = cache_token(database, "bib")
        Database(tmp_path).drop("bib")
        after = cache_token(database, "bib")
        assert after != before and after[1] == database.generation()
        with pytest.raises(DatabaseError):
            database.get("bib")  # the clean copy went with the file

    def test_foreign_quarantine_of_the_name_moves_its_token(
        self, served, tmp_path
    ):
        database, _engine, _plan, _built = served
        before = cache_token(database, "bib")
        (tmp_path / "bib.pxml.json").write_text("not json", encoding="utf-8")
        sibling = Database(tmp_path, on_corrupt="quarantine")
        with pytest.raises(DatabaseError):
            sibling.get("bib")
        assert sibling.quarantined() == ["bib"]
        after = cache_token(database, "bib")
        assert after != before and after[1] == database.generation()

    def test_own_save_and_drop_move_nothing_else(self, served):
        database, engine, plan, built = served
        database.register("lib", database.get("lib"), replace=True)
        database.save("lib")
        database.register("tmp", small_instance(root="T", leaf="U"))
        database.save("tmp")
        database.drop("tmp")
        assert self._standing(
            self._derived(database, engine, plan), built
        )
        assert cache_token(database, "lib")[1] == 0

    def test_compacted_journal_is_a_blanket_floor(self, served, tmp_path):
        database, engine, plan, built = served
        sibling = Database(tmp_path)
        sibling.register("new", small_instance(root="S", leaf="B"))
        sibling.save("new")
        assert sibling.journal.maybe_compact(threshold=1)
        assert self._all_moved(
            self._derived(database, engine, plan), built
        )
        floor = database.generation()
        assert cache_token(database, "bib")[1] == floor
        assert cache_token(database, "lib")[1] == floor

    def test_unjournaled_generation_is_a_blanket_floor(self, served, tmp_path):
        from repro.storage.locking import GENERATION_NAME, bump_generation

        database, _engine, _plan, _built = served
        before = cache_token(database, "bib")
        bump_generation(tmp_path / GENERATION_NAME)  # a gap: no commit record
        after = cache_token(database, "bib")
        assert after[0] > before[0] and after[1] == database.generation()

    def test_lock_timeout_is_a_blanket_floor(self, served, tmp_path, monkeypatch):
        from repro.errors import LockTimeout
        from repro.storage.locking import FileLock

        database, _engine, _plan, _built = served
        sibling = Database(tmp_path)
        sibling.register("new", small_instance(root="S", leaf="B"))
        sibling.save("new")

        def contended(self, timeout_s=None):
            raise LockTimeout("held elsewhere", path=str(self.path))

        monkeypatch.setattr(FileLock, "acquire", contended)
        assert cache_token(database, "bib")[1] == database.generation()

    def test_epochs_are_bounded_by_live_names(self, served, tmp_path):
        database, _engine, _plan, _built = served
        sibling = Database(tmp_path)
        sibling.register("bib", sibling.get("bib"), replace=True)
        sibling.save("bib")
        sibling.register("unseen", small_instance(root="S", leaf="B"))
        sibling.save("unseen")
        cache_token(database, "lib")
        assert set(database._epochs) == {"bib"}  # ``unseen`` has no token yet
        database.drop("bib")
        assert database._epochs == {}

    def test_not_behind_takes_no_lock_and_reads_nothing(self, served, monkeypatch):
        database, _engine, _plan, _built = served
        monkeypatch.setattr(
            Database, "_observe",
            lambda self, generation: pytest.fail("observed while not behind"),
        )
        database.register("lib", database.get("lib"), replace=True)
        database.save("lib")
        assert cache_token(database, "bib")[1] == 0

    def test_generation_only_catalog_contributes_it_whole(self):
        class Fake:
            def version(self, name):
                return 7

            def generation(self):
                return 3

        assert cache_token(Fake(), "any") == (7, 3)


class TestOneTokenPerStatement:
    """The duplication cannot come back: one statement builds each guide
    once, reads the catalog generation once — for the statement-tier
    probe, the static checker and ``Engine.execute_plan`` together, not
    once per key — and locates its path once: no ``lch`` walk, at most
    one match on the catalog's shared snapshot, no tree proof redone."""

    @pytest.fixture
    def counted(self, tmp_path, monkeypatch):
        import repro.check.dataguide as dataguide
        import repro.storage.database as storage
        from repro.workloads.generator import WorkloadSpec, generate_workload

        database = Database(tmp_path)
        database.register("t", generate_workload(
            WorkloadSpec(depth=3, branching=3, labeling="SL", seed=1)
        ).instance)
        database.save("t")
        calls = {"build_dataguide": 0, "read_generation": 0}

        def counting(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(dataguide, "build_dataguide")
        counting(storage, "read_generation")
        return Interpreter(database), calls

    def test_cold_then_cached_statement(self, counted):
        interpreter, calls = counted
        statement = "EXISTS o0.l0_0.l1_0.l2_0 IN t"
        cold = interpreter.execute(statement)
        assert 0.0 < cold.value <= 1.0
        assert calls["build_dataguide"] == 1
        assert calls["read_generation"] == 1

        calls.update(build_dataguide=0, read_generation=0)
        hits = interpreter.cache_stats["statements"]["hits"]
        assert interpreter.execute(statement).value == cold.value
        assert interpreter.cache_stats["statements"]["hits"] == hits + 1
        assert calls["build_dataguide"] == 0
        assert calls["read_generation"] == 1

    def test_checker_and_engine_share_the_guides(self, counted):
        """Neither keeps guides: the one guide lives on the instance."""
        interpreter, calls = counted
        assert not hasattr(interpreter, "_guides")
        assert not hasattr(interpreter.engine, "guides")
        interpreter.execute("EXISTS o0.l0_0 IN t")
        interpreter.execute("COUNT o0.l0_0 IN t")
        assert calls["build_dataguide"] == 1
        assert "guide" in interpreter.database.get("t").memo

    def test_the_checked_plan_runs_certified_once(self, counted, monkeypatch):
        """The plan that runs is the statement's plan as written — the
        one the checker certified, so each cold statement is certified
        once (the checker's certificate, adopted) — and on a repeat too:
        no plan and no result is remembered, the repeat executes again."""
        import repro.check.absint as absint
        from repro.engine import plan_statement
        from repro.pxql import parse

        interpreter, calls = counted
        engine = interpreter.engine
        ran = []
        execute_plan = engine.execute_plan

        def recording(plan):
            ran.append(plan)
            return execute_plan(plan)

        monkeypatch.setattr(engine, "execute_plan", recording)
        real_certify = absint.certify_plan

        def certify(*args, **kwargs):
            calls["certify_plan"] += 1
            return real_certify(*args, **kwargs)

        monkeypatch.setattr(absint, "certify_plan", certify)
        derive = "PROJECT o0.l0_0.l1_0.l2_0 FROM t AS w"
        for statement in ("EXISTS o0.l0_0.l1_0 IN t", "COUNT o0.l0_0 IN t",
                          derive, derive):
            calls["certify_plan"] = 0
            ran.clear()
            executions = interpreter.metrics.value("engine.executions")
            interpreter.execute(statement)
            assert ran == [plan_statement(parse(statement))], statement
            assert calls["certify_plan"] == 1, statement
            assert interpreter.metrics.value("engine.executions") == executions + 1

    @pytest.fixture
    def located(self, counted, monkeypatch):
        """``counted`` plus counters on the three ways to locate a path
        or prove a tree: ``lch`` walks (every ``match_path`` runs
        ``level_sets``), snapshot-memo misses, ``is_tree`` walks."""
        import repro.index.columnar as columnar
        import repro.semistructured.paths as paths
        from repro.semistructured.graph import EdgeLabeledGraph

        interpreter, calls = counted
        calls.update(walks=0, snapshot_matches=0, is_tree=0)

        def counting(owner, name, counter):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[counter] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counting(paths, "level_sets", "walks")
        counting(columnar, "_match", "snapshot_matches")
        counting(EdgeLabeledGraph, "is_tree", "is_tree")
        return interpreter, calls

    @staticmethod
    def _cold_statements(interpreter):
        """One statement of each cold kind over ``t``, each on a path
        no other uses (a repeated path would be a memo hit), with the
        most snapshot matches it may make."""
        guide = guide_of(interpreter.database.get("t"))
        deepest = [e for e in guide.paths() if len(e.labels) >= 2]
        assert len(deepest) >= 5
        texts = [".".join(("o0", *entry.labels)) for entry in deepest]
        target = sorted(deepest[3].targets)[0]
        return [
            (f"EXISTS {texts[0]} IN t", 1),
            (f"COUNT {texts[1]} IN t", 1),
            (f"DIST {texts[2]} IN t", 1),
            (f"POINT {texts[3]} : {target} IN t", 0),
            (f"PROJECT {texts[4]} FROM t AS w", 1),
        ]

    def test_cold_statements_locate_once(self, located):
        interpreter, calls = located
        interpreter.execute("EXISTS o0.l0_0 IN t")      # first touch of t
        interpreter.execute("DIST o0.l0_0 IN t")
        for statement, matches in self._cold_statements(interpreter):
            calls.update(walks=0, snapshot_matches=0, is_tree=0)
            interpreter.execute(statement)
            assert calls["walks"] == 0, statement
            assert calls["is_tree"] == 0, statement
            if statement.startswith("PROJECT"):
                assert calls["snapshot_matches"] == matches, statement
            else:
                assert calls["snapshot_matches"] <= matches, statement
        assert interpreter.metrics.value("resilience.fallbacks") == 0

    def test_cold_statements_certify_once_and_shape_once(
        self, counted, monkeypatch
    ):
        """The plan the checker certified is the plan the engine runs
        (nothing is rewritten): it adopts that certificate instead of
        interpreting the plan again, and a cold ``PROJECT ... AS`` builds
        its result shape once (for the certificate's object count), not
        once per pass."""
        import repro.check.absint as absint
        from repro.check.locate import Site

        interpreter, calls = counted
        calls.update(certify_plan=0, projected=0)
        real_certify = absint.certify_plan
        real_projected = Site.projected

        def certify(*args, **kwargs):
            calls["certify_plan"] += 1
            return real_certify(*args, **kwargs)

        def projected(self, match=None):
            calls["projected"] += 1
            return real_projected(self, match)

        monkeypatch.setattr(absint, "certify_plan", certify)
        monkeypatch.setattr(Site, "projected", projected)
        interpreter.execute("EXISTS o0.l0_0 IN t")      # first touch of t
        for statement, _matches in self._cold_statements(interpreter):
            calls.update(certify_plan=0, projected=0)
            result = interpreter.execute(f"EXPLAIN ANALYZE {statement}")
            assert "absint: kind=" in result.text, statement
            assert calls["certify_plan"] == 1, statement
            assert calls["projected"] == statement.startswith("PROJECT")
        # A statement over a derived name is planned as written too
        # (``Scan(w)``, no lineage to inline): certified once.
        calls.update(certify_plan=0)
        interpreter.execute("PROJECT o0.l0_0.l1_0 FROM w AS v")
        assert calls["certify_plan"] == 1
        assert interpreter.metrics.value("resilience.fallbacks") == 0

    def test_pool_workers_share_one_snapshot_and_one_guide(self, located):
        from repro.server import PXQLServer

        seed, calls = located
        statements = [text for text, _ in self._cold_statements(seed)]
        interpreters = []

        def factory(index):
            interpreters.append(Interpreter(seed.database))
            return interpreters[-1]

        calls.update(build_dataguide=0)
        with PXQLServer(
            database=seed.database, workers=2, interpreter_factory=factory
        ) as server:
            sent = 0
            # Both workers must have run something: one after another,
            # until each interpreter has run a statement.  (The two
            # share one statement tier, which would answer a repeated
            # bare read at admission: the filler carries a deadline.)
            while sent < len(statements) or not all(
                i.metrics.value("pxql.statements") for i in interpreters
            ):
                server.execute(
                    statements[sent] if sent < len(statements)
                    else f"COUNT o0.l0_{sent % 2} IN t WITH TIMEOUT 10",
                    timeout_s=10.0,
                )
                sent += 1
                assert sent < 200
            builds = sum(
                i.metrics.value("index.builds") or 0 for i in interpreters
            )
        assert len(interpreters) == 2
        # ``t`` and the projection's result ``w``: one guide each at
        # most, one snapshot for ``t`` — however many workers asked.
        assert builds == 1
        assert calls["build_dataguide"] <= 2
        assert {"snapshot", "guide"} <= set(seed.database.get("t").memo)


class TestStatementTier:
    """A repeated bare read is answered before parse, check, plan and
    certify — under the token of every name it scans as of *this*
    request, so nothing computed from superseded bytes is ever served."""

    POINT = "POINT R.x : A IN bib"

    @pytest.fixture
    def interp(self):
        interp = Interpreter()
        interp.database.register("bib", small_instance(p=0.6))
        return interp

    @staticmethod
    def _hits(interp):
        return interp.cache_stats["statements"]["hits"]

    def test_hit_skips_check_plan_and_certify(self, interp, monkeypatch):
        import repro.check.query as query
        import repro.engine.executor as executor

        interp.execute(self.POINT)

        def unreachable(*_args, **_kwargs):
            raise AssertionError("a statement-tier hit did the slow path's work")

        monkeypatch.setattr(query, "check_plan", unreachable)
        monkeypatch.setattr(executor, "plan_statement", unreachable)
        assert interp.execute(self.POINT).value == pytest.approx(0.6)
        assert self._hits(interp) == 1
        assert interp.metrics.value("pxql.cache.statements.hits") == 1
        assert interp.metrics.value("pxql.statements") == 2

    def test_hit_opens_the_root_span_marked_statement(self, interp):
        interp.execute(self.POINT)
        interp.execute(self.POINT)
        cold, warm = [
            span for span in interp.tracer.roots()
            if span.name == "pxql.statement"
        ]
        assert "cache" not in cold.attributes
        assert warm.attributes["cache"] == "statement"
        assert warm.attributes["kind"] == "PointStatement"
        assert warm.children == []

    def test_own_reregister_misses(self, interp):
        interp.execute(self.POINT)
        interp.database.register("bib", small_instance(p=0.25), replace=True)
        assert interp.execute(self.POINT).value == pytest.approx(0.25)
        assert self._hits(interp) == 0

    def test_drop_then_query_is_an_error_never_a_stale_value(self, interp):
        interp.execute(self.POINT)
        interp.execute("DROP bib")
        with pytest.raises(Exception, match="bib"):
            interp.execute(self.POINT)
        assert self._hits(interp) == 0

    def test_result_replaced_under_the_same_name_misses(self, interp):
        interp.database.register("lib", small_instance(p=0.9))
        interp.execute("PROJECT R.x FROM bib AS p")
        query = "EXISTS R.x IN p"
        assert interp.execute(query).value == pytest.approx(0.6)
        assert interp.execute(query).value == pytest.approx(0.6)
        assert self._hits(interp) == 1
        interp.execute("PROJECT R.x FROM lib AS p")
        assert interp.execute(query).value == pytest.approx(0.9)
        assert self._hits(interp) == 1

    def test_foreign_mutation_of_the_name_misses_of_another_hits(
        self, tmp_path
    ):
        database = Database(tmp_path)
        database.register("bib", small_instance(p=0.6))
        database.register("lib", small_instance(root="L", leaf="M"))
        database.save("bib")
        database.save("lib")
        interp = Interpreter(database)
        interp.execute(self.POINT)

        sibling = Database(tmp_path)
        sibling.register("lib", small_instance(root="L", leaf="N"), replace=True)
        sibling.save("lib")
        sibling.register("new", small_instance(root="S", leaf="B"))
        sibling.save("new")
        sibling.drop("new")
        assert interp.execute(self.POINT).value == pytest.approx(0.6)
        assert self._hits(interp) == 1

        sibling.register("bib", small_instance(p=0.9), replace=True)
        sibling.save("bib")
        assert interp.execute(self.POINT).value == pytest.approx(0.9)
        assert self._hits(interp) == 1

        sibling.drop("bib")
        with pytest.raises(Exception, match="bib"):
            interp.execute(self.POINT)
        assert self._hits(interp) == 1

    def test_mutating_a_returned_dist_does_not_reach_the_tier(self, interp):
        expected = dict(interp.execute("DIST R.x IN bib").value)
        interp.execute("DIST R.x IN bib").value.clear()   # the cold answer's copy
        served = interp.execute("DIST R.x IN bib")
        assert served.value == expected
        served.value[99] = 1.0
        assert interp.execute("DIST R.x IN bib").value == expected
        assert self._hits(interp) == 3

    def test_warn_mode_restores_the_diagnostics(self):
        interp = Interpreter(check="warn")
        interp.database.register("bib", small_instance())
        statement = "EXISTS R.nothing IN bib"
        interp.execute(statement)
        cold = list(interp.last_diagnostics)
        assert "PX240" in [d.code for d in cold]
        interp.execute("LIST")
        interp.last_diagnostics = []
        assert interp.execute(statement).value == 0.0
        assert self._hits(interp) == 1
        assert interp.last_diagnostics == cold

    def test_check_mode_is_part_of_the_key(self, interp):
        interp.check = "warn"
        interp.execute(self.POINT)
        interp.check = "error"
        interp.execute(self.POINT)
        assert self._hits(interp) == 0

    def test_expired_budget_raises_on_a_hit(self, interp):
        from repro.errors import BudgetExceeded
        from repro.resilience.budget import Budget, use_budget

        interp.execute(self.POINT)
        clock = iter([0.0, 5.0, 5.0, 5.0]).__next__
        with use_budget(Budget(deadline_s=1.0, clock=clock)):
            with pytest.raises(BudgetExceeded):
                interp.execute(self.POINT)
        assert self._hits(interp) == 1
        assert interp.metrics.value("pxql.errors") == 1

    def test_faulted_probe_is_a_miss(self, interp):
        from repro.resilience.faults import FaultInjector, FaultSpec

        interp.execute(self.POINT)
        with FaultInjector(FaultSpec("pxql.cache.statements.get")):
            assert interp.execute(self.POINT).value == pytest.approx(0.6)
        assert self._hits(interp) == 0
        assert interp.metrics.value("resilience.cache_errors") == 1

    def test_timeouts_and_caching_off_bypass(self, interp):
        """A deadline bypasses the tier; there is no other way to switch
        it off."""
        interp.execute(self.POINT + " WITH TIMEOUT 5")
        interp.execute(self.POINT + " WITH TIMEOUT 5")
        interp.execute("SET TIMEOUT 5")
        interp.execute(self.POINT)
        interp.execute(self.POINT)
        assert interp.cache_stats["statements"]["gets"] == 0
        interp.execute("SET TIMEOUT 0")
        interp.execute(self.POINT)
        assert interp.cache_stats["statements"]["gets"] == 1

    def test_only_bare_reads_that_succeeded_normally_enter(self, interp):
        for statement in (
            "PROJECT R.x FROM bib AS p", "LIST",
            "EXPLAIN " + self.POINT, "CHECK " + self.POINT,
            "PROFILE " + self.POINT,
        ):
            interp.execute(statement)
            interp.execute(statement)
        with pytest.raises(Exception):
            interp.execute("POINT R.x : A IN nowhere")
        assert interp.cache_stats["statements"]["size"] == 0

    def test_a_walked_answer_is_admitted(self, interp, monkeypatch):
        """An answer the walked operator gave in place of a failed
        snapshot evaluation is the reference answer: the tier keeps it,
        and its repeats are hits that reach no accelerator."""

        def explode(node, pi, col):
            raise RuntimeError("snapshot access exploded")

        monkeypatch.setattr(interp.engine, "_apply_indexed", explode)
        for _ in range(300):
            assert interp.execute(self.POINT).value == pytest.approx(0.6)
        assert interp.metrics.value("resilience.fallbacks") == 1
        assert self._hits(interp) == 299
        assert interp.cache_stats["statements"]["size"] == 1

    def test_error_mode_blocks_on_every_execution(self, interp):
        statement = "SELECT R.x = Z FROM bib"
        from repro.check.diagnostics import CheckError

        for _ in range(2):
            with pytest.raises(CheckError):
                interp.execute(statement)
        blocked = "PROB Z IN bib"   # a read kind with an error finding
        for _ in range(3):
            with pytest.raises(CheckError):
                interp.execute(blocked)
        assert interp.cache_stats["statements"]["size"] == 0


class TestReadsWriteNothing:
    """A statement that is not ``SAVE``/``DROP``/``LOAD`` touches the
    catalog directory read-only: every result tier is in memory, so no
    file appears or changes, nothing is fsynced and no instance is
    serialised — cold, repeated, after a restart or on a second worker."""

    QUERIES = (
        "POINT R.x : A IN bib",
        "EXISTS R.x IN bib",
        "COUNT L.x IN lib",
        "DIST L.x IN lib",
        "CHAIN R.A IN bib",
        "PROB M IN lib",
    )
    #: Independent of each other: pool workers run them in any order.
    DERIVATIONS = (
        "PROJECT R.x FROM bib AS unsaved",
        "SELECT R.x = A FROM bib AS chosen",
        "EXPLAIN ANALYZE EXISTS L.x IN lib",
    )

    @staticmethod
    def _tree(root):
        tree = {}
        for path in root.rglob("*"):
            stat = path.stat()
            tree[str(path.relative_to(root))] = (stat.st_size, stat.st_mtime_ns)
        return tree

    @pytest.fixture
    def catalog(self, tmp_path, monkeypatch):
        """Two saved instances, and counters on the two calls a spill
        would have to make."""
        import os

        from repro.io import json_codec

        database = Database(tmp_path)
        database.register("bib", small_instance())
        database.register("lib", small_instance(root="L", leaf="M"))
        database.save("bib")
        database.save("lib")
        calls = {"fsync": 0, "encode": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(os, "fsync", counted("fsync", os.fsync))
        monkeypatch.setattr(
            json_codec, "encode_instance",
            counted("encode", json_codec.encode_instance),
        )
        return database, calls

    def test_cold_repeated_restarted_and_pooled_reads(self, catalog, tmp_path):
        from repro.server import PXQLServer

        database, calls = catalog
        statements = self.QUERIES + self.DERIVATIONS
        # Opening a catalog takes ``catalog.lock`` for recovery (the
        # holder record is stamped and truncated); statements do not.
        reopened, served = Database(tmp_path), Database(tmp_path)
        before = self._tree(tmp_path)

        interp = Interpreter(database=database)
        cold = [interp.execute(text).value for text in self.QUERIES]
        assert [interp.execute(text).value for text in self.QUERIES] == cold
        assert interp.cache_stats["statements"]["hits"] == len(self.QUERIES)
        for text in self.DERIVATIONS * 2:
            interp.execute(text)

        # The restart case: a new process has the instances and nothing
        # else to load, and answers the same.
        restarted = Interpreter(database=reopened)
        assert [restarted.execute(text).value for text in self.QUERIES] == cold
        assert restarted.cache_stats["statements"]["hits"] == 0
        for text in self.DERIVATIONS:
            restarted.execute(text)

        with PXQLServer(database=served, workers=2, queue_size=64) as server:
            replies = [server.submit(text) for text in statements * 2]
            pooled = [reply.result(10.0).value for reply in replies]
        assert pooled[:len(self.QUERIES)] == cold

        assert self._tree(tmp_path) == before
        assert not (tmp_path / "cache").exists()
        assert calls == {"fsync": 0, "encode": 0}

    def test_a_save_moves_all_three(self, catalog, tmp_path):
        """The pin above is not vacuous: the write path trips it."""
        database, calls = catalog
        before = self._tree(tmp_path)
        interp = Interpreter(database=database)
        interp.execute("PROJECT R.x FROM bib AS kept")
        interp.execute("SAVE kept")
        assert self._tree(tmp_path) != before
        assert calls["fsync"] > 0 and calls["encode"] > 0

    def test_the_engine_reports_two_tiers_the_interpreter_three(self, catalog):
        """(Named when there were a plan and a result tier below the
        statement tier: the engine now reports none, the interpreter
        one.)"""
        database, _calls = catalog
        interp = Interpreter(database=database)
        interp.execute(self.QUERIES[0])
        assert not hasattr(interp.engine, "cache_stats")
        assert set(interp.cache_stats) == {"statements"}
        # ``benchmarks/e2e`` still passes the keyword and records
        # lineage; both are accepted and change nothing.
        engine = Engine(database, disk_cache=False)
        plan = PlanBuilder.scan("bib").project("R.x").build()
        engine.record_lineage("view", plan, engine.versions_of(plan))
        assert engine.versions_of(plan) == (("bib", database.version("bib")),)


class TestLineageEviction:
    """(Named for the lineage records that are gone.)  A derived name is
    an ordinary registered instance: dropping it leaves nothing behind,
    and replacing its input leaves it as it was registered."""

    def test_project_as_drop_cycle_leaves_nothing_behind(self):
        interpreter = Interpreter(Database())
        interpreter.database.register("bib", small_instance())
        dropped = []
        for _round in range(3):
            interpreter.execute("PROJECT R.x FROM bib AS tmp")
            interpreter.execute("EXISTS R.x IN tmp")
            dropped.append(weakref.ref(interpreter.database.get("tmp")))
            interpreter.execute("DROP tmp")
            assert interpreter.database.names() == ["bib"]
        gc.collect()
        assert [ref() for ref in dropped] == [None, None, None]

    def test_entry_whose_input_was_replaced_is_evicted(self):
        interpreter = Interpreter(Database())
        interpreter.database.register("bib", small_instance(p=0.6))
        interpreter.execute("PROJECT R.x FROM bib AS view")
        interpreter.database.register("bib", small_instance(p=0.3), replace=True)
        # ``view`` is read as registered, not re-derived from the new bib.
        assert interpreter.execute("EXISTS R.x IN view").value == \
            pytest.approx(0.6)
        interpreter.execute("SELECT R.x = A FROM view AS chosen")
        assert interpreter.execute("EXISTS R.x IN chosen").value == \
            pytest.approx(1.0)
        assert interpreter.execute("EXISTS R.x IN bib").value == \
            pytest.approx(0.3)


class TestDroppedNamesAreForgotten:
    """What is derived from an instance lives on it: a dropped, replaced
    or foreign-invalidated instance is freed together with its snapshot,
    so memory follows the live names, not every name a server has ever
    derived."""

    CYCLES = 300

    @staticmethod
    def _held(database, name):
        """Weak references to ``name``'s instance and its snapshot."""
        instance = database.get(name)
        snapshot = instance.memo["snapshot"]
        assert snapshot is not None
        return weakref.ref(instance), weakref.ref(snapshot)

    @staticmethod
    def _freed(refs):
        gc.collect()
        return [ref for ref in refs if ref() is not None] == []

    def _cycle(self, execute, database, number):
        name = f"w_{number}"
        execute(f"PROJECT R.x FROM src AS {name}")
        execute(f"EXISTS R.x IN {name}")
        held = self._held(database, name)
        execute(f"DROP {name}")
        return held

    def test_through_one_interpreter(self):
        interpreter = Interpreter()
        database = interpreter.database
        database.register("src", small_instance())
        refs = []
        for number in range(self.CYCLES):
            refs.extend(self._cycle(interpreter.execute, database, number))
        assert database.names() == ["src"]
        # Replaced: the old instance and its snapshot go with it.
        interpreter.execute("EXISTS R.x IN src")
        refs.extend(self._held(database, "src"))
        database.register("src", small_instance(p=0.3), replace=True)
        assert interpreter.execute("EXISTS R.x IN src").value == pytest.approx(0.3)
        assert self._freed(refs)

    def test_through_a_two_worker_server(self, tmp_path):
        from repro.server import PXQLServer

        database = Database(tmp_path)
        database.register("src", small_instance())
        database.save("src")
        refs = []
        with PXQLServer(database=database, workers=2) as server:
            for number in range(self.CYCLES):
                refs.extend(self._cycle(
                    lambda text: server.execute(text, timeout_s=10.0),
                    database, number,
                ))
        assert database.names() == ["src"]
        assert self._freed(refs)

    def test_foreign_drop_is_forgotten_too(self, tmp_path):
        database = Database(tmp_path)
        interpreter = Interpreter(database)
        database.register("src", small_instance())
        database.save("src")
        interpreter.execute("EXISTS R.x IN src")
        refs = self._held(database, "src")
        Database(tmp_path).drop("src")
        with pytest.raises(Exception, match="src"):
            interpreter.execute("EXISTS R.x IN src")
        assert self._freed(refs)

    def test_foreign_save_frees_the_served_copy(self, tmp_path):
        database = Database(tmp_path)
        interpreter = Interpreter(database)
        database.register("src", small_instance())
        database.save("src")
        interpreter.execute("EXISTS R.x IN src")
        refs = self._held(database, "src")
        sibling = Database(tmp_path)
        sibling.register("src", small_instance(p=0.3), replace=True)
        sibling.save("src")
        assert interpreter.execute("EXISTS R.x IN src WITH TIMEOUT 30").value == \
            pytest.approx(0.3)
        assert self._freed(refs)
        assert database.get("src").memo["snapshot"] is not None
