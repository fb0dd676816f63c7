"""The PXQL server: admission control, budgets, shutdown, probes.

These tests drive :class:`repro.server.PXQLServer` through its whole
contract — correct results under concurrency, typed ``Overloaded``
backpressure on a full queue, per-request budget enforcement, graceful
drain versus immediate stop, signal-triggered shutdown, probe
transitions, and ContextVar propagation from submitter to worker.
"""

from __future__ import annotations

import concurrent.futures
import signal
import threading
import time

import pytest

from repro.core.builder import InstanceBuilder
from repro.errors import BudgetExceeded, Overloaded, ServerError
from repro.obs.metrics import MetricsRegistry
from repro.pxql.interpreter import Interpreter
from repro.resilience.budget import Budget
from repro.resilience.faults import FaultInjector, FaultSpec
from repro.server import PXQLServer
from repro.storage.database import Database

QUERY = "EXISTS R.book.author IN bib"


def build_bib():
    """A small tree-structured bibliography (local algorithms apply)."""
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


@pytest.fixture()
def database():
    db = Database()
    db.register("bib", build_bib())
    return db


@pytest.fixture()
def reference():
    """QUERY's answer, computed over a catalog of its own: computed over
    ``database``, it would sit in the statement tier the server under
    test shares, and every QUERY would be answered at admission."""
    db = Database()
    db.register("bib", build_bib())
    return Interpreter(database=db).execute(QUERY).value


class _GatedInterpreter(Interpreter):
    """An interpreter whose execution blocks until a gate opens — the
    deterministic way to fill the admission queue in tests."""

    def __init__(self, gate: threading.Event, **kwargs):
        super().__init__(**kwargs)
        self._gate = gate

    def execute(self, text):
        assert self._gate.wait(10.0), "test gate never opened"
        return super().execute(text)


def gated_server(database, gate, workers=1, queue_size=2, **kwargs):
    return PXQLServer(
        database=database,
        workers=workers,
        queue_size=queue_size,
        interpreter_factory=lambda index: _GatedInterpreter(
            gate, database=database
        ),
        **kwargs,
    )


class TestExecution:
    def test_concurrent_queries_return_the_reference_value(
        self, database, reference
    ):
        with PXQLServer(database=database, workers=4, queue_size=64) as server:
            futures = [server.submit(QUERY) for _ in range(16)]
            for future in futures:
                assert future.result(10.0).value == pytest.approx(reference)
            health = server.health()
        assert health["completed"] == 16
        assert health["failed"] == 0

    def test_unnamed_results_do_not_collide_across_workers(self, database):
        with PXQLServer(database=database, workers=4, queue_size=64) as server:
            futures = [
                server.submit("PROJECT R.book FROM bib") for _ in range(12)
            ]
            names = {f.result(10.0).instance_name for f in futures}
        assert len(names) == 12  # every auto-name is worker-prefixed unique

    def test_an_unnamed_result_never_replaces_a_saved_one(self, tmp_path):
        """Regression: the fresh-name counter starts at 1 in every
        process and registration replaces, so after a restart the first
        unnamed ``PROJECT`` overwrote the saved ``_w0_result1``."""
        database = Database(tmp_path)
        database.register("bib", build_bib())
        database.save("bib")
        with PXQLServer(database=database, workers=1) as server:
            first = server.execute(
                "PROJECT R.book.author FROM bib", timeout_s=10.0
            )
            server.execute(f"SAVE {first.instance_name}", timeout_s=10.0)
        saved = Database(tmp_path).get(first.instance_name)
        assert len(saved) == 5
        restarted = Database(tmp_path)
        with PXQLServer(database=restarted, workers=1) as server:
            second = server.execute("PROJECT R.book FROM bib", timeout_s=10.0)
        assert second.instance_name != first.instance_name
        assert len(restarted.get(second.instance_name)) == 3
        assert len(restarted.get(first.instance_name)) == 5

    def test_execution_errors_travel_through_the_future(self, database):
        with PXQLServer(database=database, workers=2, queue_size=8) as server:
            future = server.submit("EXISTS R.book.author IN no_such_instance")
            with pytest.raises(Exception) as excinfo:
                future.result(10.0)
        assert "no_such_instance" in str(excinfo.value)

    def test_submit_before_start_is_refused(self, database):
        server = PXQLServer(database=database)
        with pytest.raises(ServerError):
            server.submit(QUERY)


class TestAdmissionControl:
    def test_full_queue_answers_overloaded(self, database):
        gate = threading.Event()
        server = gated_server(database, gate, workers=1, queue_size=2)
        with server:
            admitted = [server.submit(QUERY)]
            # The worker may have dequeued the first request (it is now
            # blocked on the gate); fill whatever queue space remains.
            rejected = None
            for _ in range(8):
                try:
                    admitted.append(server.submit(QUERY))
                except Overloaded as exc:
                    rejected = exc
                    break
            assert rejected is not None
            assert rejected.reason == "queue_full"
            assert not server.ready()  # no capacity -> not ready
            gate.set()
            for future in admitted:
                future.result(10.0)
        assert server.metrics.value("server.rejected") >= 1

    def test_budget_bounds_a_request(self, database):
        with PXQLServer(database=database, workers=2, queue_size=8) as server:
            future = server.submit(QUERY, budget=Budget(deadline_s=1e-9))
            with pytest.raises(BudgetExceeded):
                future.result(10.0)

    def test_budget_factory_applies_to_every_request(self, database):
        with PXQLServer(
            database=database,
            workers=2,
            queue_size=8,
            budget_factory=lambda: Budget(deadline_s=1e-9),
        ) as server:
            with pytest.raises(BudgetExceeded):
                server.execute(QUERY, timeout_s=10.0)
            # An explicit budget overrides the factory default.
            result = server.execute(
                QUERY, budget=Budget(deadline_s=30.0), timeout_s=10.0
            )
            assert result.value is not None


class TestShutdown:
    def test_drain_finishes_queued_work(self, database, reference):
        gate = threading.Event()
        server = gated_server(database, gate, workers=2, queue_size=8)
        server.start()
        futures = [server.submit(QUERY) for _ in range(4)]
        gate.set()
        assert server.drain(timeout_s=10.0)
        for future in futures:
            assert future.result(0.0).value == pytest.approx(reference)
        with pytest.raises(Overloaded) as excinfo:
            server.submit(QUERY)
        assert excinfo.value.reason == "draining"
        assert server.stop(drain=False)
        assert server.state == "stopped"

    def test_immediate_stop_answers_queued_requests(self, database):
        gate = threading.Event()
        server = gated_server(database, gate, workers=1, queue_size=4)
        server.start()
        futures = []
        for _ in range(5):
            try:
                futures.append(server.submit(QUERY))
            except Overloaded:
                break
        gate.set()
        server.stop(drain=False, timeout_s=10.0)
        resolved = 0
        for future in futures:
            try:
                future.result(10.0)
                resolved += 1
            except Overloaded as exc:
                assert exc.reason == "stopped"
                resolved += 1
        assert resolved == len(futures)  # every request got an answer

    def test_stop_with_a_full_queue_and_every_worker_busy(
        self, database, reference
    ):
        """Every worker parked at the handoff and the queue full:
        ``stop()`` returns within its bound, answers each queued request
        with ``Overloaded("stopped")``, and each worker exits once its
        parked request is answered — released by ``stop()``, not by a
        poll of a stop flag."""
        parked = FaultInjector(
            FaultSpec(site="server.worker.handoff", kind="slow",
                      delay_s=1.5, times=2)
        )
        server = PXQLServer(database=database, workers=2, queue_size=2)
        server.start()
        with parked:
            running = [server.submit(QUERY) for _ in range(2)]
            deadline = time.monotonic() + 5.0
            while parked.fired("server.worker.handoff") < 2:
                assert time.monotonic() < deadline, "workers never dequeued"
                time.sleep(0.002)
            queued = [server.submit(QUERY) for _ in range(2)]
            with pytest.raises(Overloaded) as full:
                server.submit(QUERY)
        assert full.value.reason == "queue_full"
        started = time.monotonic()
        assert not server.stop(drain=False, timeout_s=0.3)
        assert time.monotonic() - started < 1.2
        for future in queued:
            error = future.exception(0.0)
            assert isinstance(error, Overloaded)
            assert error.reason == "stopped"
        for future in running:
            assert future.result(10.0).value == pytest.approx(reference)
        deadline = time.monotonic() + 10.0
        while server.health()["workers_alive"]:
            assert time.monotonic() < deadline, "a worker outlived stop()"
            time.sleep(0.01)
        assert server.health()["unfinished"] == 0

    def test_stop_is_idempotent(self, database):
        server = PXQLServer(database=database, workers=1).start()
        assert server.stop()
        assert server.stop()
        assert server.state == "stopped"

    def test_signal_triggers_graceful_shutdown(self, database, reference):
        server = PXQLServer(database=database, workers=2, queue_size=8)
        server.start()
        previous = server.install_signal_handlers(signals=(signal.SIGUSR1,))
        try:
            future = server.submit(QUERY)
            signal.raise_signal(signal.SIGUSR1)
            assert future.result(10.0).value == pytest.approx(reference)
            deadline = time.monotonic() + 10.0
            while server.state != "stopped" and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.state == "stopped"
            assert server.metrics.value("server.signals") == 1
        finally:
            signal.signal(signal.SIGUSR1, previous[signal.SIGUSR1])
            server.stop(drain=False)


class TestLifecycleRaces:
    """Regression tests for the two shutdown races (PR 8).

    Both were real TOCTOU windows in the original server: drain()
    judged idleness from queue depth + the in-flight counter (which a
    worker increments only *after* dequeuing), and submit() released
    the state lock between the state check and the enqueue (so a stop()
    sweep could run inside the gap and the late put was never
    answered).  The ``server.worker.handoff`` / ``server.submit.enqueue``
    fault points park a thread inside exactly those windows.
    """

    def test_drain_does_not_report_idle_during_worker_handoff(
        self, database, reference
    ):
        # Park the single worker inside the dequeue→execute handoff:
        # a barrier fault with parties=2 that only the worker visits
        # waits out its full rendezvous window (0.6 s) before releasing.
        injector = FaultInjector(
            FaultSpec(site="server.worker.handoff", kind="barrier",
                      parties=2, delay_s=0.6, times=1)
        )
        server = PXQLServer(database=database, workers=1, queue_size=4)
        with server:
            with injector:
                future = server.submit(QUERY)
            deadline = time.monotonic() + 5.0
            while injector.fired("server.worker.handoff") == 0:
                assert time.monotonic() < deadline, "worker never dequeued"
                time.sleep(0.002)
            # The worker has dequeued (depth is 0) but not yet run the
            # request.  The buggy drain() saw depth == 0, inflight == 0
            # and reported a clean drain with work still pending.
            assert not server.drain(timeout_s=0.2), (
                "drain() reported idle while a request sat in the "
                "dequeue→execute handoff window"
            )
            assert not future.done()
            assert future.result(10.0).value == pytest.approx(reference)
            assert server.drain(timeout_s=10.0)

    def test_late_submit_is_always_answered(self, database):
        # Park a submitter between the admission check and the enqueue
        # while stop() runs its whole shutdown (halt + sweep).  The
        # buggy submit() then landed the request in the queue *after*
        # the sweep, with all workers gone — unresolved forever.
        injector = FaultInjector(
            FaultSpec(site="server.submit.enqueue", kind="slow",
                      delay_s=0.4, times=1)
        )
        server = PXQLServer(database=database, workers=1, queue_size=4).start()
        outcome: dict[str, object] = {}

        def late_submit() -> None:
            with injector:
                try:
                    outcome["future"] = server.submit(QUERY)
                except Overloaded as exc:
                    outcome["rejected"] = exc.reason

        thread = threading.Thread(target=late_submit, name="late-submitter")
        thread.start()
        deadline = time.monotonic() + 5.0
        while injector.fired("server.submit.enqueue") == 0:
            assert time.monotonic() < deadline, "submitter never parked"
            time.sleep(0.002)
        server.stop(drain=False, timeout_s=10.0)
        thread.join(10.0)
        assert not thread.is_alive()
        future = outcome.get("future")
        if future is None:
            # stop() won the race outright: a typed rejection is fine.
            assert outcome.get("rejected") in ("draining", "stopped")
        else:
            # Admitted — then it MUST be answered (result or typed
            # error), never abandoned in a halted queue.
            done, _ = concurrent.futures.wait([future], timeout=5.0)
            assert done, (
                "late submit lost its request forever: admitted after "
                "the shutdown sweep with every worker halted"
            )
            try:
                future.result(0.0)
            except Overloaded as exc:
                assert exc.reason == "stopped"

    def test_execute_raises_server_error_on_type_confusion(self, database):
        # `assert isinstance(value, Result)` vanished under python -O;
        # the check must hold in every mode and raise a typed error.
        class _ConfusedInterpreter(Interpreter):
            def execute(self, text):
                return "not a Result"

        with PXQLServer(
            database=database,
            workers=1,
            interpreter_factory=lambda i: _ConfusedInterpreter(
                database=database
            ),
        ) as server:
            with pytest.raises(ServerError, match="non-Result"):
                server.execute(QUERY, timeout_s=10.0)


class TestProbes:
    def test_probe_lifecycle(self, database):
        server = PXQLServer(database=database, workers=2, queue_size=4)
        assert not server.alive()
        assert not server.ready()
        server.start()
        assert server.alive()
        assert server.ready()
        server.drain(timeout_s=5.0)
        assert server.alive()  # draining pool is still live...
        assert not server.ready()  # ...but not admitting
        server.stop(drain=False)
        assert not server.alive()
        assert not server.ready()

    def test_health_counters_reconcile(self, database):
        metrics = MetricsRegistry()
        with PXQLServer(
            database=database, workers=2, queue_size=16, metrics=metrics
        ) as server:
            for _ in range(6):
                server.execute(QUERY, timeout_s=10.0)
            try:
                server.execute(
                    "EXISTS R.book.author IN missing", timeout_s=10.0
                )
            except Exception:
                pass
            health = server.health()
        assert health["submitted"] == 7
        assert health["completed"] + health["failed"] == 7
        assert health["queue_depth"] == 0


    def test_a_reply_is_counted_before_it_is_visible(self, database):
        """Whoever holds a reply finds it in the counters: the callback
        runs on the resolving thread, at the moment of resolution."""
        metrics = MetricsRegistry()
        gate = threading.Event()
        seen = {}

        def at_resolve(name):
            return lambda _future: seen.__setitem__(name, metrics.value(name))

        with gated_server(database, gate, metrics=metrics) as server:
            good = server.submit(QUERY)
            bad = server.submit("EXISTS R.book.author IN missing")
            good.add_done_callback(at_resolve("server.completed"))
            bad.add_done_callback(at_resolve("server.failed"))
            gate.set()
            concurrent.futures.wait([good, bad], timeout=10.0)
        assert seen == {"server.completed": 1, "server.failed": 1}

        # The handoff-fault branch resolves without executing; the one
        # worker is parked in a gated request while the callback lands.
        # (Reads the statement tier does not hold yet: QUERY would now
        # be answered at admission, never reaching a worker.)
        handoff = FaultInjector(FaultSpec(site="server.worker.handoff"))
        gate.clear()
        seen.clear()
        with gated_server(database, gate, metrics=metrics) as server:
            parked = server.submit("PROB B1 IN bib")
            with handoff:
                future = server.submit("PROB B2 IN bib")
            future.add_done_callback(at_resolve("server.failed"))
            gate.set()
            concurrent.futures.wait([parked, future], timeout=10.0)
        assert handoff.fired("server.worker.handoff") == 1
        assert seen == {"server.failed": 2}


class TestAdmission:
    """A repeated read is answered where it is admitted: the statement
    tier every worker shares is probed on the submitting thread, and a
    hit comes back resolved without being queued."""

    @staticmethod
    def _hits(server):
        return server.metrics.value("pxql.cache.statements.hits") or 0

    def test_a_hit_is_answered_while_every_worker_is_parked(
        self, database, reference
    ):
        with PXQLServer(database=database, workers=2, queue_size=4) as server:
            assert server.execute(QUERY, timeout_s=10.0).value == (
                pytest.approx(reference)
            )
            parked = FaultInjector(
                FaultSpec(site="server.worker.handoff", kind="slow",
                          delay_s=1.0, times=2)
            )
            with parked:
                running = [server.submit(f"PROB B{n} IN bib") for n in (1, 2)]
                deadline = time.monotonic() + 5.0
                while parked.fired("server.worker.handoff") < 2:
                    assert time.monotonic() < deadline, "workers never dequeued"
                    time.sleep(0.002)
                hit = server.submit(QUERY)
                assert hit.done()
                assert hit.result(0.0).value == pytest.approx(reference)
                assert not any(future.done() for future in running)
            for future in running:
                future.result(10.0)
            health = server.health()
        assert self._hits(server) == 1
        assert health["submitted"] == 4
        assert health["completed"] + health["failed"] == 4

    def test_counters_reconcile_with_hits_and_misses(self, database):
        with PXQLServer(database=database, workers=2, queue_size=16) as server:
            for _ in range(5):
                server.execute(QUERY, timeout_s=10.0)
            with pytest.raises(BudgetExceeded):
                server.execute(QUERY, budget=Budget(max_node_evals=0),
                               timeout_s=10.0)
            with pytest.raises(Exception, match="missing"):
                server.execute("EXISTS R.book.author IN missing",
                               timeout_s=10.0)
            health = server.health()
        assert self._hits(server) == 5   # the fifth is the spent budget's
        assert health["submitted"] == 7
        assert health["completed"] == 5
        assert health["failed"] == 2

    def test_a_hit_charges_the_budget_it_carries(self, database):
        with PXQLServer(database=database, workers=1) as server:
            server.execute(QUERY, timeout_s=10.0)
            budget = Budget(max_node_evals=5)
            assert server.submit(QUERY, budget=budget).done()
            assert budget.node_evals == 1

    def test_a_hit_after_drain_is_refused(self, database):
        server = PXQLServer(database=database, workers=1).start()
        server.execute(QUERY, timeout_s=10.0)
        assert server.submit(QUERY).done()
        assert server.drain(timeout_s=10.0)
        with pytest.raises(Overloaded) as draining:
            server.submit(QUERY)
        assert draining.value.reason == "draining"
        assert server.stop(drain=False)
        with pytest.raises(Overloaded) as stopped:
            server.submit(QUERY)
        assert stopped.value.reason == "stopped"
        assert self._hits(server) == 1

    def test_a_foreign_save_of_the_source_is_a_miss(self, tmp_path):
        database = Database(tmp_path)
        database.register("bib", build_bib())
        database.save("bib")
        sure = InstanceBuilder("R")
        sure.children("R", "book", ["B1"])
        sure.opf("R", {("B1",): 1.0})
        sure.children("B1", "author", ["A1"])
        sure.opf("B1", {("A1",): 1.0})
        sure.leaf("A1", "name", ["x"], {"x": 1.0})
        with PXQLServer(database=database, workers=1) as server:
            before = server.execute(QUERY, timeout_s=10.0).value
            assert server.submit(QUERY).done()
            sibling = Database(tmp_path)
            sibling.register("bib", sure.build(), replace=True)
            sibling.save("bib")
            after = server.execute(QUERY, timeout_s=10.0).value
            assert server.submit(QUERY).result(0.0).value == after
        assert before == pytest.approx(0.59)
        assert after == pytest.approx(1.0)
        assert self._hits(server) == 2


class TestContextPropagation:
    def test_submitters_fault_injector_reaches_the_worker(self, tmp_path):
        """Ambient ContextVars are captured at submit and replayed in
        the worker — an injector installed by the submitting thread
        fires at hook points the worker visits."""
        database = Database(tmp_path)
        database.register("bib", build_bib())
        injector = FaultInjector(
            FaultSpec(
                site="lock.db.mutate", kind="slow", delay_s=0.0, times=None
            )
        )
        with PXQLServer(database=database, workers=2, queue_size=8) as server:
            with injector:
                server.execute("SAVE bib", timeout_s=10.0)
            before = injector.fired("lock.db.mutate")
            assert before >= 1
            # Outside the with-block the snapshot no longer carries it.
            server.execute("SAVE bib", timeout_s=10.0)
            assert injector.fired("lock.db.mutate") == before
