"""Thread-safety of the shared core: caches, metrics, tracer,
catalog, and the cross-process file lock.

Each test hammers one component from many threads and then checks an
exact invariant — counters that reconcile, a catalog that stayed
consistent, exactly one half-open probe — because "no crash" alone
would pass for code that silently tears state.
"""

from __future__ import annotations

import contextvars
import json
import threading

import pytest

from repro.engine.cache import LRUCache
from repro.errors import LockTimeout
from repro.io.json_codec import read_instance
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.paper import figure2_instance
from repro.pxql import Interpreter
from repro.pxql.parser import parse
from repro.resilience.faults import FaultInjector, FaultSpec
from repro.storage.database import Database, DatabaseError
from repro.storage.locking import (
    CATALOG_LOCK_NAME,
    FileLock,
    bump_generation,
    read_generation,
)


def run_threads(count: int, target, *args) -> list[BaseException]:
    """Run ``target(index, *args)`` on ``count`` threads; collect errors.

    Thread targets run inside a copy of the caller's context, so ambient
    installations (fault injectors) propagate as the server's workers
    would see them.
    """
    errors: list[BaseException] = []
    context = contextvars.copy_context()

    def wrap(index: int) -> None:
        try:
            contextvars.Context.run(context.copy(), target, index, *args)
        except BaseException as exc:  # noqa: BLE001 - collected for assertion
            errors.append(exc)

    threads = [
        threading.Thread(target=wrap, args=(index,)) for index in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return errors


# ----------------------------------------------------------------------
# LRU cache
# ----------------------------------------------------------------------
class TestLRUCacheContention:
    THREADS = 8
    OPS = 400

    def test_counters_reconcile_under_contention(self):
        cache = LRUCache(capacity=32)

        def hammer(index: int) -> None:
            for op in range(self.OPS):
                key = (index * op) % 48  # collisions and evictions alike
                if op % 3 == 0:
                    cache.put(key, (key, index, op))
                else:
                    value = cache.get(key)
                    if value is not None:
                        # An entry is stored and read atomically: a torn
                        # write would break the key == value[0] pairing.
                        assert value[0] == key

        errors = run_threads(self.THREADS, hammer)
        assert errors == []
        stats = cache.stats
        assert stats.gets == stats.hits + stats.misses
        assert stats.gets == self.THREADS * self.OPS - sum(
            1 for op in range(self.OPS) if op % 3 == 0
        ) * self.THREADS
        assert stats.size <= cache.capacity

    def test_engine_caches_under_concurrent_queries(self):
        """One engine answering from many threads, and the statement
        tier in front of it: the same answer, untorn counters."""
        interpreter = Interpreter()
        interpreter.database.register("bib", figure2_instance())
        statement = parse("EXISTS R.book.author IN bib")
        reference = interpreter.engine.execute_statement(statement).value

        def query(index: int) -> None:
            for _ in range(10):
                result = interpreter.engine.execute_statement(statement)
                assert result.value == pytest.approx(reference)
                repeat = interpreter.execute("EXISTS R.book.author IN bib")
                assert repeat.value == pytest.approx(reference)

        errors = run_threads(self.THREADS, query)
        assert errors == []
        for name, stats in interpreter.cache_stats.items():
            assert stats["gets"] == stats["hits"] + stats["misses"], name


    def test_one_tier_under_admission_and_workers(self):
        """One statement tier, probed by submitting threads at admission
        and by pool workers (more than there are cores): every request
        is answered with the reference, each bare read counts exactly
        one hit or one miss, and the server's counters reconcile."""
        import sys

        from repro.server import PXQLServer

        database = Database()
        database.register("bib", figure2_instance())
        reads = ["EXISTS R.book.author IN bib", "PROB B1 IN bib",
                 "COUNT R.book IN bib", "CHAIN R.B1 IN bib"]
        reference = Database()
        reference.register("bib", figure2_instance())
        expected = {text: Interpreter(reference).execute(text).value for text in reads}
        rounds = 60
        with PXQLServer(database=database, workers=4, queue_size=256) as server:

            def submit(index: int) -> None:
                for op in range(rounds):
                    read = reads[(index + op) % len(reads)]
                    # A deadline bypasses the tier.
                    text = read + " WITH TIMEOUT 30" if op % 5 == 0 else read
                    value = server.execute(text, timeout_s=30.0).value
                    assert value == pytest.approx(expected[read])

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                errors = run_threads(6, submit)
            finally:
                sys.setswitchinterval(interval)
            health = server.health()
            stats = server._interpreters[0].cache_stats["statements"]
        assert errors == []
        assert health["submitted"] == health["completed"] == 6 * rounds
        assert stats["gets"] == stats["hits"] + stats["misses"]
        assert stats["gets"] == 6 * rounds * 4 // 5
        assert stats["misses"] >= len(reads)


# ----------------------------------------------------------------------
# The catalog's shared columnar snapshot
# ----------------------------------------------------------------------
class TestSharedSnapshot:
    """One snapshot per name serves every pool worker, the checker and
    the engine: its bounded match memo is the only compound update on
    it, and must neither tear nor outgrow its cap under contention; its
    ``reach`` memo is filled slot by slot with values every thread
    computes identically, so any interleaving ends in the same memo."""

    THREADS = 4
    PATHS = 400

    def test_reach_memo_under_contention(self):
        import random
        import sys

        from repro.index import ColumnarInstance
        from repro.workloads.generator import WorkloadSpec, generate_workload

        pi = generate_workload(WorkloadSpec(
            depth=5, branching=3, labeling="FR", seed=11,
        )).instance
        alone = ColumnarInstance.from_instance(pi)
        objects = sorted(pi.objects)
        expected = {oid: alone.reach(pi, oid) for oid in objects}
        assert 0.0 < min(expected.values()) and max(expected.values()) == 1.0
        shared = ColumnarInstance.from_instance(pi)

        def fill(index: int) -> None:
            order = list(objects)
            random.Random(index).shuffle(order)
            for oid in order:
                assert shared.reach(pi, oid) == expected[oid]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            errors = run_threads(8, fill)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert shared._reach == alone._reach

    def test_match_memo_under_contention(self):
        import sys

        from repro.check.dataguide import build_dataguide
        from repro.index import match_path_indexed, snapshot_of
        from repro.index.columnar import _MATCH_MEMO_CAP
        from repro.semistructured.paths import PathExpression, match_path
        from repro.workloads.generator import WorkloadSpec, generate_workload

        assert self.PATHS > _MATCH_MEMO_CAP
        database = Database()
        database.register("t", generate_workload(WorkloadSpec(
            depth=4, branching=3, labeling="FR", seed=3, labels_per_depth=3,
        )).instance)
        pi = database.get("t")
        live = [entry.labels for entry in build_dataguide(pi).paths()]
        # Live paths plus dead extensions of them: distinct, and past
        # the memo's capacity, so evictions run the whole time.
        paths = [
            PathExpression(pi.root, (*live[i % len(live)], *(
                (f"x{i // len(live)}",) if i >= len(live) else ()
            )))
            for i in range(self.PATHS)
        ]
        assert len(set(paths)) == self.PATHS
        graph = pi.weak.graph()
        expected = {path: match_path(graph, path) for path in paths}
        col = snapshot_of("t", pi)

        def match_all(index: int) -> None:
            assert snapshot_of("t", database.get("t")) is col
            # Each thread walks the list from its own offset, so some
            # meet on a path and others evict each other's entries.
            start = index * self.PATHS // self.THREADS
            for _round in range(2):
                for path in paths[start:] + paths[:start]:
                    assert match_path_indexed(col, path) == expected[path]
                    assert len(col._match_memo) <= _MATCH_MEMO_CAP

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            errors = run_threads(self.THREADS, match_all)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert 0 < len(col._match_memo) <= _MATCH_MEMO_CAP


# ----------------------------------------------------------------------
# Metrics and tracer
# ----------------------------------------------------------------------
class TestObsThreadSafety:
    def test_counter_increments_are_not_lost(self):
        registry = MetricsRegistry()

        def bump(index: int) -> None:
            for _ in range(2000):
                registry.counter("hits").inc()
                registry.gauge("level").set(float(index))
                registry.histogram("lat").observe(0.001 * index)

        errors = run_threads(8, bump)
        assert errors == []
        assert registry.value("hits") == 8 * 2000
        assert registry.get("lat").count == 8 * 2000

    def test_shared_tracer_keeps_span_trees_per_thread(self):
        tracer = Tracer(capacity=4096)

        def trace(index: int) -> None:
            for op in range(50):
                with tracer.span(f"root.{index}", thread=index):
                    with tracer.span(f"child.{index}.{op}", thread=index):
                        pass

        errors = run_threads(8, trace)
        assert errors == []
        roots = tracer.roots()
        assert len(roots) == 8 * 50
        for root in roots:
            # Thread-local stacks: a root's children always belong to
            # the thread that opened the root — interleaving would mix
            # thread tags within one tree.
            tags = {span.attributes["thread"] for span in root.walk()}
            assert len(tags) == 1


# ----------------------------------------------------------------------
# File lock and generation counter
# ----------------------------------------------------------------------
class TestFileLock:
    def test_mutual_exclusion_between_lock_instances(self, tmp_path):
        path = tmp_path / CATALOG_LOCK_NAME
        counter = {"value": 0}

        def bump(index: int) -> None:
            lock = FileLock(path, timeout_s=5.0, poll_s=0.001)
            for _ in range(25):
                with lock:
                    current = counter["value"]
                    counter["value"] = current + 1

        errors = run_threads(8, bump)
        assert errors == []
        assert counter["value"] == 8 * 25

    def test_timeout_is_typed_and_names_the_path(self, tmp_path):
        path = tmp_path / CATALOG_LOCK_NAME
        holder = FileLock(path)
        holder.acquire()
        try:
            contender = FileLock(path, timeout_s=0.05, poll_s=0.005)
            with pytest.raises(LockTimeout) as excinfo:
                contender.acquire()
            assert str(path) in str(excinfo.value)
        finally:
            holder.release()

    def test_reentrant_for_the_holding_thread(self, tmp_path):
        lock = FileLock(tmp_path / CATALOG_LOCK_NAME)
        with lock:
            with lock:
                assert lock.held
        assert not lock.held

    def test_stale_holder_metadata_is_detected(self, tmp_path):
        path = tmp_path / CATALOG_LOCK_NAME
        # A crashed holder leaves its metadata behind (a clean release
        # truncates the file); the flock itself died with the process.
        path.write_text(
            json.dumps({"pid": 99999999, "host": "ghost", "acquired_at": 0}),
            encoding="utf-8",
        )
        lock = FileLock(path)
        with lock:
            pass
        assert lock.stale_reclaims == 1

    def test_generation_counter_is_monotone(self, tmp_path):
        path = tmp_path / "catalog.generation"
        assert read_generation(path) == 0
        assert bump_generation(path) == 1
        assert bump_generation(path) == 2
        assert read_generation(path) == 2

    @pytest.mark.parametrize("text, expected", [
        ("7\n", 7), ("  12  ", 12), ("", 0), ("x", 0),
    ])
    def test_generation_file_text(self, tmp_path, text, expected):
        path = tmp_path / "catalog.generation"
        path.write_text(text, encoding="utf-8")
        assert read_generation(path) == expected
        assert read_generation(tmp_path / "missing") == 0
        assert read_generation(tmp_path) == 0  # a directory reads as absent


# ----------------------------------------------------------------------
# Database
# ----------------------------------------------------------------------
class TestDatabaseConcurrency:
    def test_register_save_drop_from_many_threads(self, tmp_path):
        database = Database(tmp_path)
        database.register("bib", figure2_instance())
        database.save("bib")

        def hammer(index: int) -> None:
            name = f"copy{index}"
            for op in range(10):
                database.register(name, figure2_instance(), replace=True)
                database.save(name)
                assert database.get("bib") is not None
                if op % 3 == 2:
                    try:
                        database.drop(name)
                    except DatabaseError:
                        pass  # racing drop of the same name

        errors = run_threads(8, hammer)
        assert errors == []
        # The catalog must reload cleanly: every surviving file passes
        # its checksum, and the lock is not wedged.
        fresh = Database(tmp_path)
        for name in fresh.names():
            fresh.get(name)
        with FileLock(tmp_path / CATALOG_LOCK_NAME, timeout_s=1.0):
            pass
        assert fresh.generation() > 0

    def test_items_and_save_all_iterate_snapshots(self, tmp_path):
        database = Database(tmp_path)
        for index in range(12):
            database.register(f"base{index}", figure2_instance())
        stop = threading.Event()

        def churn(index: int) -> None:
            count = 0
            while not stop.is_set():
                name = f"churn{index}_{count % 4}"
                database.register(name, figure2_instance(), replace=True)
                count += 1
                try:
                    database.drop(name)
                except DatabaseError:
                    pass

        def iterate(index: int) -> None:
            try:
                for _ in range(6):
                    seen = [name for name, _ in database.items()]
                    assert len(seen) >= 12  # the stable names never vanish
                    database.save_all()
            finally:
                stop.set()

        errors = run_threads(
            4, lambda i: churn(i) if i else iterate(i)
        )
        stop.set()
        assert errors == []

    def test_two_catalog_objects_under_threads_lose_no_write(self, tmp_path):
        """Writers on two ``Database`` objects over one directory plus
        token-building readers, with more threads than cores and a
        short switch interval: a remembered journal tail or a foreign-
        mutation mark that lost an update would issue a duplicate seq,
        skip a generation, or leave a stale copy behind a moved token."""
        import os
        import sys

        from repro.paper import example52_instance
        from repro.storage.derived import cache_token
        from repro.storage.journal import Journal

        mine, sibling = Database(tmp_path), Database(tmp_path)
        mine.register("shared", figure2_instance())
        mine.save("shared")
        threads = 3 * (os.cpu_count() or 2)

        def work(index: int) -> None:
            role = index % 3
            for step in range(8):
                if role == 0:    # own writes: move nothing of ``shared``
                    name = f"own{index}"
                    mine.register(name, figure2_instance(), replace=True)
                    mine.save(name)
                    mine.drop(name)
                elif role == 1:  # foreign writes to the shared name
                    instance = (
                        example52_instance() if step % 2
                        else figure2_instance()
                    )
                    sibling.register("shared", instance, replace=True)
                    sibling.save("shared")
                else:            # readers on the first object
                    cache_token(mine, "shared")
                    assert mine.get("shared") is not None

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            errors = run_threads(threads, work)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []

        records, torn = Journal(tmp_path).read()
        assert not torn
        begins = [r.seq for r in records if r.state == "begin"]
        assert begins == sorted(set(begins))
        # (A compaction may have folded the oldest into a checkpoint.)
        commits = [r.generation for r in records if r.generation is not None]
        assert commits == list(range(commits[0], commits[0] + len(commits)))
        assert commits[-1] == mine.generation()
        # Everyone stopped: one token build brings ``mine`` up to date.
        cache_token(mine, "shared")
        assert len(mine.get("shared")) == len(Database(tmp_path).get("shared"))
        assert mine._seen == mine.generation()

    def test_generation_moves_with_saves_and_drops(self, tmp_path):
        database = Database(tmp_path)
        database.register("bib", figure2_instance())
        start = database.generation()
        database.save("bib")
        after_save = database.generation()
        assert after_save == start + 1
        database.drop("bib")
        assert database.generation() == after_save + 1


# ----------------------------------------------------------------------
# Fault injector: barrier faults and thread safety
# ----------------------------------------------------------------------
class TestInjectorConcurrency:
    def test_barrier_fault_rendezvouses_threads(self):
        injector = FaultInjector(
            FaultSpec(
                site="lock.cache",
                kind="barrier",
                parties=4,
                times=None,
                delay_s=2.0,
            )
        )
        cache = LRUCache(capacity=8)
        release_order: list[int] = []
        lock = threading.Lock()

        def touch(index: int) -> None:
            with injector:
                cache.put(index, index)
            with lock:
                release_order.append(index)

        errors = run_threads(4, touch)
        assert errors == []
        assert len(release_order) == 4
        assert injector.fired("lock.cache") == 4

    def test_event_log_is_consistent_under_threads(self):
        injector = FaultInjector(
            FaultSpec(site="lock.cache", kind="slow", delay_s=0.0, times=None)
        )
        cache = LRUCache(capacity=8)

        def touch(index: int) -> None:
            with injector:
                for op in range(50):
                    cache.get(op)

        errors = run_threads(8, touch)
        assert errors == []
        assert injector.fired("lock.cache") == 8 * 50

    def test_verify_instances_round_trip_after_contention(self, tmp_path):
        """End-to-end: saved-under-contention files decode standalone."""
        database = Database(tmp_path)
        database.register("bib", figure2_instance())

        def save(index: int) -> None:
            for _ in range(5):
                database.save("bib")

        errors = run_threads(6, save)
        assert errors == []
        loaded = read_instance(tmp_path / "bib.pxml.json")
        assert len(loaded) == len(figure2_instance())
