"""The seeded concurrency chaos suite.

Eight submitter threads hammer a running :class:`PXQLServer` (queries,
instance-producing statements, saves, drops) while a seeded
:class:`FaultInjector` perturbs thread scheduling at lock boundaries
(``barrier`` faults piling threads up at the catalog and cache locks),
stalls cache lookups, and injects ``OSError`` s into drops.  The suite
asserts the whole concurrency contract at once:

* every request is answered — a correct value or a *typed* error
  (``Overloaded`` / ``BudgetExceeded`` / ``DatabaseError`` /
  ``CheckError``), never a wrong answer, an untyped crash, or a hang;
* queries against the untouched instance always return the
  single-threaded reference value;
* afterwards the catalog is consistent: a fresh ``Database`` reloads
  every surviving file checksum-clean, the catalog lock is acquirable
  (not wedged), and the generation counter moved;
* no torn stats: each worker's cache counters reconcile
  (``gets == hits + misses``) and the server's request counters add up.

Seeds 0..2 run by default; set ``PXML_CHAOS_SEED`` to add another (the
CI stress job drives a seed matrix through exactly this hook).
"""

from __future__ import annotations

import contextvars
import os
import random
import threading
import time

import pytest

from repro.algebra import rename_objects
from repro.check.diagnostics import CheckError
from repro.core.builder import InstanceBuilder
from repro.errors import (
    BudgetExceeded,
    FaultError,
    Overloaded,
    ServerError,
)
from repro.io.json_codec import dumps
from repro.pxql.interpreter import Interpreter
from repro.resilience.faults import FaultInjector, FaultSpec
from repro.server import PXQLServer, ShardedServer
from repro.storage.database import Database, DatabaseError
from repro.storage.locking import CATALOG_LOCK_NAME, FileLock

THREADS = 8
OPS_PER_THREAD = 10
STABLE_QUERY = "EXISTS R.book.author IN bib"

#: Errors a chaotic request may legitimately end in.  Anything else —
#: or a wrong value — fails the suite.
TYPED_ERRORS = (Overloaded, BudgetExceeded, DatabaseError, CheckError,
                FaultError)


def _seeds() -> list[int]:
    seeds = [0, 1, 2]
    extra = os.environ.get("PXML_CHAOS_SEED")
    if extra is not None and int(extra) not in seeds:
        seeds.append(int(extra))
    return seeds


def build_bib():
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


def chaos_injector(seed: int) -> FaultInjector:
    """Scheduling chaos at every lock boundary plus real drop failures."""
    return FaultInjector(
        # Pile submitters/workers up at the catalog's lock boundaries
        # and release them simultaneously — the race amplifier.
        FaultSpec(site="lock.db.*", kind="barrier", parties=3,
                  probability=0.3, delay_s=0.02),
        # Stampede the statement tier's internal lock.
        FaultSpec(site="lock.pxql.cache.statements", kind="barrier", parties=2,
                  probability=0.2, delay_s=0.01),
        # And make some drops genuinely fail at the unlink.
        FaultSpec(site="db.drop.unlink", kind="error", exception=OSError,
                  nth=4, times=2),
        seed=seed,
    )


@pytest.mark.parametrize("seed", _seeds())
def test_chaos_suite(tmp_path, seed):
    database = Database(tmp_path)
    database.register("bib", build_bib())
    database.save("bib")
    reference = Interpreter(database=database).execute(STABLE_QUERY).value

    # Capture each worker's interpreter so cache stats can be audited
    # afterwards.  Every instance-producing statement in the mix carries
    # an AS name, so plain interpreters cannot collide on fresh names.
    interpreters: list[Interpreter] = []

    def factory(index: int) -> Interpreter:
        interpreter = Interpreter(database=database)
        interpreters.append(interpreter)
        return interpreter

    server = PXQLServer(
        database=database,
        workers=THREADS,
        queue_size=64,
        interpreter_factory=factory,
    )
    injector = chaos_injector(seed)

    outcomes: list[tuple[str, object]] = []
    outcome_lock = threading.Lock()
    start_barrier = threading.Barrier(THREADS)

    def record(kind: str, payload: object) -> None:
        with outcome_lock:
            outcomes.append((kind, payload))

    def hammer(index: int) -> None:
        rng = random.Random(seed * 1000 + index)
        start_barrier.wait()
        for op in range(OPS_PER_THREAD):
            name = f"t{index}_{op % 3}"
            roll = rng.random()
            if roll < 0.4:
                statement = STABLE_QUERY
            elif roll < 0.6:
                statement = f"PROJECT R.book FROM bib AS {name}"
            elif roll < 0.75:
                statement = f"SAVE {name}" if rng.random() < 0.5 else "SAVE bib"
            elif roll < 0.9:
                statement = f"DROP {name}"
            else:
                statement = "LIST"
            try:
                future = server.submit(statement)
            except Overloaded as exc:
                record("rejected", exc.reason)
                continue
            try:
                result = future.result(30.0)
            except TYPED_ERRORS as exc:
                record("typed_error", (statement, type(exc).__name__))
            except BaseException as exc:  # noqa: BLE001 - suite verdict
                record("untyped", (statement, repr(exc)))
            else:
                if statement == STABLE_QUERY:
                    record("stable_value", result.value)
                else:
                    record("ok", statement)

    server.start()
    errors: list[BaseException] = []
    with injector:
        context = contextvars.copy_context()

        def wrap(index: int) -> None:
            try:
                contextvars.Context.run(context.copy(), hammer, index)
            except BaseException as exc:  # noqa: BLE001 - suite verdict
                errors.append(exc)

        threads = [
            threading.Thread(target=wrap, args=(i,), name=f"chaos-{i}")
            for i in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not any(t.is_alive() for t in threads), "submitters deadlocked"
    assert server.stop(drain=True, timeout_s=30.0), "drain/stop timed out"

    assert errors == []
    kinds = [kind for kind, _ in outcomes]
    untyped = [payload for kind, payload in outcomes if kind == "untyped"]
    assert untyped == []  # typed errors only, never a raw crash

    # Every submitted request was answered with something.
    answered = sum(
        1 for kind in kinds if kind in ("ok", "stable_value", "typed_error")
    )
    rejected = kinds.count("rejected")
    assert answered + rejected == THREADS * OPS_PER_THREAD

    # The untouched instance always answers with the reference value.
    stable_values = [p for kind, p in outcomes if kind == "stable_value"]
    assert stable_values, "chaos mix never queried the stable instance"
    for value in stable_values:
        assert value == pytest.approx(reference)

    # Server counters reconcile: nothing lost, nothing double-counted.
    submitted = server.metrics.value("server.submitted")
    completed = server.metrics.value("server.completed")
    failed = server.metrics.value("server.failed")
    aborted = server.metrics.value("server.aborted")
    assert submitted == completed + failed
    assert aborted == 0  # graceful drain answers everything
    assert submitted + server.metrics.value("server.rejected") >= (
        THREADS * OPS_PER_THREAD
    )

    # No torn cache stats in any worker's statement tier.
    for interpreter in interpreters:
        for name, stats in interpreter.cache_stats.items():
            assert stats["gets"] == stats["hits"] + stats["misses"], name

    # The catalog came out consistent: every surviving file reloads
    # checksum-clean in a fresh Database, the cross-process lock is
    # free (not wedged by the chaos), and the generation moved.
    fresh = Database(tmp_path)
    for name in fresh.names():
        instance = fresh.get(name)
        assert len(instance) > 0
    with FileLock(tmp_path / CATALOG_LOCK_NAME, timeout_s=1.0):
        pass
    assert fresh.generation() >= 1  # the setup save alone bumps it

    # The injector actually perturbed the run (the suite is not a no-op).
    assert injector.fired("lock.*") > 0
    assert injector.fired("lock.pxql.cache.statements") > 0


# ----------------------------------------------------------------------
# Multi-process sharded chaos
# ----------------------------------------------------------------------
SHARD_THREADS = 4
SHARD_OPS = 6

#: What a request against a degrading sharded deployment may end in.
#: ``ServerError`` covers its transported subtypes too —
#: ``ShardUnavailable`` (killed shard), ``RemoteExecutionError``
#: (non-reconstructible shard errors such as ``CheckError``), and
#: ``Overloaded`` — plus the scatter-gather wrapper itself.
SHARDED_TYPED_ERRORS = (
    Overloaded, BudgetExceeded, DatabaseError, CheckError, FaultError,
    ServerError,
)


def _sharded_seeds() -> list[int]:
    seeds = [0]
    extra = os.environ.get("PXML_CHAOS_SEED")
    if extra is not None and int(extra) not in seeds:
        seeds.append(int(extra))
    return seeds


def shard_fault_specs() -> tuple[FaultSpec, ...]:
    """In-shard faults, shipped picklable through ``ShardConfig``
    (the router's ambient injector cannot cross the spawn boundary)."""
    return (
        FaultSpec(site="lock.db.*", kind="barrier", parties=2,
                  probability=0.2, delay_s=0.01),
        FaultSpec(site="lock.pxql.cache.statements", kind="slow",
                  probability=0.15, delay_s=0.002),
        FaultSpec(site="db.drop.unlink", kind="error", exception=OSError,
                  nth=3, times=1),
    )


def _pick_name(server: ShardedServer, shard: int, stem: str) -> str:
    for index in range(200):
        candidate = f"{stem}{index}"
        if server.owner(candidate) == shard:
            return candidate
    raise AssertionError(f"no candidate name routed to shard {shard}")


@pytest.mark.parametrize("seed", _sharded_seeds())
def test_sharded_chaos_suite(tmp_path, seed):
    """Kill and restart a shard process under concurrent cross-shard
    load; the deployment must stay typed, honest, and recoverable."""
    local = Database()
    bib = build_bib()
    local.register("bib", bib)
    reference = Interpreter(database=local).execute(STABLE_QUERY).value

    server = ShardedServer(
        tmp_path,
        shards=2,
        workers_per_shard=2,
        queue_size=32,
        fault_specs=shard_fault_specs(),
        fault_seed=seed,
    )
    server.start()
    try:
        server.register_instance("bib", dumps(bib), save=True)
        victim_shard = 1 - server.owner("bib")
        mirror = _pick_name(server, victim_shard, "mirror")
        server.register_instance(
            mirror,
            dumps(rename_objects(
                bib, {oid: f"m_{oid}" for oid in bib.objects}
            )),
            save=True,
        )
        assert server.owner(mirror) != server.owner("bib")

        outcomes: list[tuple[str, object]] = []
        outcome_lock = threading.Lock()
        start_barrier = threading.Barrier(SHARD_THREADS + 1)

        def record(kind: str, payload: object) -> None:
            with outcome_lock:
                outcomes.append((kind, payload))

        def hammer(index: int) -> None:
            rng = random.Random(seed * 1000 + index)
            start_barrier.wait()
            for op in range(SHARD_OPS):
                name = f"t{index}_{op % 2}"
                roll = rng.random()
                if roll < 0.35:
                    statement = STABLE_QUERY
                elif roll < 0.55:
                    statement = f"PROJECT R.book FROM bib AS {name}"
                elif roll < 0.75:
                    statement = (
                        f"PRODUCT bib, {mirror} ROOT xr AS p{index}_{op % 2}"
                    )
                elif roll < 0.9:
                    statement = f"DROP {name}"
                else:
                    statement = "LIST"
                try:
                    future = server.submit(statement)
                except SHARDED_TYPED_ERRORS as exc:
                    record("rejected", type(exc).__name__)
                    time.sleep(0.01)
                    continue
                try:
                    result = future.result(60.0)
                except SHARDED_TYPED_ERRORS as exc:
                    record("typed_error", (statement, type(exc).__name__))
                except BaseException as exc:  # noqa: BLE001 - suite verdict
                    record("untyped", (statement, repr(exc)))
                else:
                    if statement == STABLE_QUERY:
                        record("stable_value", result.value)
                    else:
                        record("ok", statement)
                time.sleep(0.01)

        errors: list[BaseException] = []

        def wrap(index: int) -> None:
            try:
                hammer(index)
            except BaseException as exc:  # noqa: BLE001 - suite verdict
                errors.append(exc)

        threads = [
            threading.Thread(target=wrap, args=(i,), name=f"shard-chaos-{i}")
            for i in range(SHARD_THREADS)
        ]
        for thread in threads:
            thread.start()
        start_barrier.wait()

        # Mid-load: hard-kill the mirror's shard, then bring it back.
        time.sleep(0.15)
        server.kill_shard(victim_shard)
        time.sleep(0.15)
        server.restart_shard(victim_shard)

        for thread in threads:
            thread.join(timeout=180.0)
        assert not any(t.is_alive() for t in threads), "submitters deadlocked"
        assert errors == []

        kinds = [kind for kind, _ in outcomes]
        untyped = [payload for kind, payload in outcomes if kind == "untyped"]
        assert untyped == []  # typed errors only, even across the kill

        answered = sum(
            1 for kind in kinds
            if kind in ("ok", "stable_value", "typed_error")
        )
        rejected = kinds.count("rejected")
        assert answered + rejected == SHARD_THREADS * SHARD_OPS

        # Successful stable queries always carry the reference value —
        # a killed shard may refuse them, but never corrupt them.
        for value in (p for kind, p in outcomes if kind == "stable_value"):
            assert value == pytest.approx(reference)

        # Router counters reconcile: every admitted statement resolved
        # exactly once; synchronous rejections resolved nothing.
        submitted = server.metrics.value("router.submitted")
        completed = server.metrics.value("router.completed")
        failed = server.metrics.value("router.failed")
        assert submitted == completed + failed + rejected
        assert server.metrics.value("router.shard_kills") == 1
        assert server.metrics.value("router.shard_restarts") == 1

        # The restarted shard serves its reloaded catalog: the
        # cross-shard product works again end to end.
        final = server.execute(
            f"PRODUCT bib, {mirror} ROOT xr AS aftermath", timeout_s=60.0
        )
        assert final.instance_name == "aftermath"
        directories = server.shard_directories()
    finally:
        assert server.stop(drain=True, timeout_s=30.0)

    # Every shard directory survives as a consistent, lock-free catalog:
    # surviving files reload checksum-clean and the generation moved on
    # every shard that saved.
    generations = []
    for directory in directories:
        fresh = Database(directory)
        for name in fresh.names():
            assert len(fresh.get(name)) > 0
        with FileLock(directory / CATALOG_LOCK_NAME, timeout_s=1.0):
            pass
        generations.append(fresh.generation())
    assert sum(generations) >= 2  # bib and mirror saves, one per shard
