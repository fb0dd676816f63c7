"""A supervised, multi-threaded PXQL serving layer.

:class:`PXQLServer` turns the single-threaded PXQL interpreter into a
long-running service: a fixed pool of worker threads executes admitted
statements against one shared (thread-safe) :class:`Database`, behind a
bounded admission queue with typed backpressure.

The concurrency contract, piece by piece:

* **admission** — :meth:`PXQLServer.submit` never blocks and the queue
  never grows past its bound: a full queue, a draining server, and a
  stopped server all answer with :class:`~repro.errors.Overloaded`
  (reasons ``queue_full`` / ``draining`` / ``stopped``);
* **context propagation** — ambient installations made by the
  submitting thread (fault injector, budget, tracer rebinding — all
  :class:`~contextvars.ContextVar` based, which threads do *not*
  inherit) are captured at submission and replayed in the worker via
  :meth:`contextvars.Context.run`;
* **budgets** — each request may carry its own
  :class:`~repro.resilience.budget.Budget` (or the server's
  ``budget_factory`` default), armed around the statement, so a slow
  query ends in a typed :class:`~repro.errors.BudgetExceeded` instead
  of occupying a worker forever;
* **isolation** — each worker owns a private
  :class:`~repro.pxql.interpreter.Interpreter` (fresh result names
  carry the worker's index and skip every name the catalog already
  holds, so two ``PROJECT ...`` statements without ``AS`` can never
  clash, nor replace a result saved by an earlier run), while the
  database, tracer and metrics registry are shared and thread-safe —
  and with the database its one statement tier
  (:class:`~repro.pxql.interpreter.StatementTier`) and the immutable,
  token-stamped state derived from its instances (snapshots,
  dataguides, cost measurements: one per name per catalog object, see
  :meth:`repro.storage.derived.DerivedCache.of`);
* **answers at admission** — :meth:`PXQLServer.submit` probes that
  tier on the submitting thread, without parsing: a repeated read whose
  input has not moved comes back as an already-resolved future and is
  never queued; a miss is queued with nothing computed;
* **shutdown** — :meth:`drain` stops admissions and waits for the
  queue and in-flight work to finish; :meth:`stop` then (or
  immediately, with ``drain=False``) resolves every still-queued
  request with ``Overloaded(reason="stopped")`` and releases the
  workers, which block on the queue and never poll — a request is
  always answered, never abandoned.  Two details make the contract
  race-free: admission (the state check *and* the enqueue) happens
  atomically under the state lock, so a submission can never slip into
  the queue after the shutdown sweep; and idleness is judged by the
  :class:`queue.Queue`'s own task accounting (``task_done`` after the
  request is answered), not its depth, so a request sitting in the
  dequeue→execute handoff window can never make :meth:`drain` report a
  clean drain early;
* **probes** — :meth:`alive` (liveness: the pool is running) and
  :meth:`ready` (readiness: admissions are open and capacity remains)
  are cheap and lock-light, backed by the same :mod:`repro.obs`
  counters :meth:`health` exposes.

Every submission is a :class:`concurrent.futures.Future`: the worker
(or, for a statement-tier hit, the admission) resolves it with the
statement's :class:`Result` or its error, and
:func:`wait` is the bounded wait both backends' ``execute`` use.

See ``docs/SERVER.md`` for the full model.
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import queue
import signal
import threading
import time
from collections.abc import Callable
from concurrent.futures import Future
from dataclasses import dataclass, field
from types import FrameType, TracebackType
from typing import Any, TypeVar

from repro.collector import collector_stats
from repro.errors import Overloaded, ServerError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.pxql.interpreter import Interpreter, Result, answer_from_tier
from repro.resilience.budget import Budget, use_budget
from repro.resilience.faults import fault_point
from repro.storage.database import Database

_NEW = "new"
_RUNNING = "running"
_DRAINING = "draining"
_STOPPED = "stopped"

_T = TypeVar("_T")


def new_future() -> Future[Any]:
    """The future of one admitted request, already marked running so no
    caller can cancel it: an admitted request is always answered."""
    future: Future[Any] = Future()
    future.set_running_or_notify_cancel()
    return future


def timed_out(timeout_s: float) -> ServerError:
    """The error of a wait that outlived ``timeout_s``."""
    return ServerError(f"request did not complete within {timeout_s:g}s")


def wait(future: Future[_T], timeout_s: float | None = None) -> _T:
    """The request's outcome: returns its value or raises its error.

    Raises :func:`timed_out`'s :class:`~repro.errors.ServerError` when
    the request is still unresolved after ``timeout_s`` (the request
    itself keeps running; a :class:`~repro.resilience.budget.Budget`
    bounds the execution, not just the wait).
    """
    try:
        error = future.exception(timeout_s)
    except concurrent.futures.TimeoutError:
        raise timed_out(timeout_s or 0.0) from None
    if error is not None:
        raise error
    return future.result()


@dataclass
class _Request:
    """One admitted statement: its future, and the submitter's
    :mod:`contextvars` snapshot the worker runs it in (threads do not
    inherit ambient installations: fault injector, budget, tracer)."""

    text: str
    budget: Budget | None
    future: Future[Result] = field(default_factory=new_future)
    context: contextvars.Context = field(default_factory=contextvars.copy_context)
    submitted_at: float = field(default_factory=time.monotonic)


class _WorkerInterpreter(Interpreter):
    """An interpreter whose fresh result names carry ``prefix``
    (``_w3_result1``; ``_s1_w3_result1`` on shard 1), so unnamed results
    from concurrent workers or shards never collide in the catalog."""

    def __init__(self, prefix: str, **kwargs: object) -> None:
        super().__init__(**kwargs)  # type: ignore[arg-type]
        self._fresh_prefix = f"{prefix}_result"


class PXQLServer:
    """A worker pool executing PXQL statements with admission control.

    Args:
        database: the shared catalog (a fresh in-memory one if omitted).
        workers: worker-thread count.
        queue_size: admission-queue bound (the backpressure knob).
        budget_factory: builds the default per-request
            :class:`Budget`; ``None`` means requests run unbudgeted
            unless :meth:`submit` is given one explicitly.  A factory
            (not a shared instance) because budgets are stateful — each
            request arms its own.
        tracer: span collector shared by all workers (thread-local span
            stacks keep the trees untangled); own instance if omitted.
        metrics: registry shared by all workers; own instance if omitted.
        interpreter_factory: builds one interpreter per worker (index →
            interpreter) when the server starts; the default builds
            :class:`Interpreter` s sharing ``database``/``tracer``/
            ``metrics`` with worker-prefixed fresh names.  Whatever it
            builds shares the statement tier of its catalog object;
            admission probes it under the first worker's catalog and
            check mode.
        name: thread-name prefix, for debuggability.
    """

    def __init__(
        self,
        database: Database | None = None,
        workers: int = 4,
        queue_size: int = 16,
        budget_factory: Callable[[], Budget] | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        interpreter_factory: Callable[[int], Interpreter] | None = None,
        name: str = "pxql",
    ) -> None:
        if workers < 1:
            raise ServerError("a server needs at least one worker")
        if queue_size < 1:
            raise ServerError("admission queue needs maxsize >= 1")
        self.database = database if database is not None else Database()
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.workers = workers
        self._queue_size = queue_size
        self.name = name
        self._budget_factory = budget_factory
        self._interpreter_factory = (
            interpreter_factory
            if interpreter_factory is not None
            else self._default_interpreter
        )
        # Unbounded as a queue.Queue: submit() enforces ``queue_size``
        # under the state lock, so stop() can always add one ``None``
        # per worker to release it.
        self._queue: queue.Queue[_Request | None] = queue.Queue()
        self._interpreters: list[Interpreter] = []
        self._threads: list[threading.Thread] = []
        self._state = _NEW
        self._state_lock = threading.Lock()
        self._halted = False  # stop() has swept the queue and released the pool

    def _default_interpreter(self, worker: int) -> Interpreter:
        return _WorkerInterpreter(
            f"_w{worker}",
            database=self.database,
            tracer=self.tracer,
            metrics=self.metrics,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """``"new"``, ``"running"``, ``"draining"`` or ``"stopped"``."""
        with self._state_lock:
            return self._state

    def start(self) -> "PXQLServer":
        """Spawn the worker pool; admissions open immediately."""
        # Built before the state lock is taken: a factory may probe the
        # server.
        interpreters = [
            self._interpreter_factory(index) for index in range(self.workers)
        ]
        with self._state_lock:
            if self._state != _NEW:
                raise ServerError(
                    f"server cannot start from state {self._state!r}"
                )
            self._interpreters = interpreters
            self._state = _RUNNING
        for index, interpreter in enumerate(self._interpreters):
            thread = threading.Thread(
                target=self._worker_loop,
                args=(interpreter,),
                name=f"{self.name}-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        self.metrics.gauge("server.workers").set(float(self.workers))
        return self

    def drain(self, timeout_s: float = 30.0) -> bool:
        """Close admissions and wait for queued + in-flight work.

        Returns whether everything finished within ``timeout_s``; the
        pool keeps running either way (call :meth:`stop` to halt it).

        Idleness is the queue's own task accounting: a request counts
        from admission until its worker calls ``task_done`` after
        answering it.  Queue depth would race — a worker dequeues
        (depth drops to 0) *before* it runs the request, and a drain
        looking inside that handoff window would see "idle" and report
        a clean drain with a request still about to run.
        """
        with self._state_lock:
            if self._state == _RUNNING:
                self._state = _DRAINING
        tasks = self._queue.all_tasks_done
        with tasks:
            return tasks.wait_for(
                lambda: not self._queue.unfinished_tasks, timeout_s
            )

    def stop(self, drain: bool = True, timeout_s: float = 30.0) -> bool:
        """Halt the pool; returns whether shutdown completed cleanly.

        With ``drain=True`` (the default) queued and in-flight requests
        finish first (up to ``timeout_s``).  Either way, any request
        still queued when the pool halts is resolved with
        ``Overloaded(reason="stopped")`` — submitters always get an
        answer — and each worker exits once its current request is
        answered.  Idempotent.
        """
        drained = True
        if drain:
            drained = self.drain(timeout_s)
        with self._state_lock:
            if self._state == _STOPPED:
                return drained
            self._state = _DRAINING  # admissions stay closed while halting
            halt, self._halted = not self._halted, True
        if halt:
            while True:
                try:
                    request = self._queue.get_nowait()
                except queue.Empty:
                    break
                if request is not None:
                    self.metrics.counter("server.aborted").inc()
                    request.future.set_exception(Overloaded(
                        "server stopped before execution", reason="stopped"
                    ))
                self._queue.task_done()
            for _ in self._threads:
                self._queue.put(None)  # one release per worker
        deadline = time.monotonic() + timeout_s
        joined = True
        for thread in self._threads:
            remaining = max(0.0, deadline - time.monotonic())
            thread.join(timeout=remaining)
            joined = joined and not thread.is_alive()
        with self._state_lock:
            self._state = _STOPPED
        self.metrics.gauge("server.workers").set(0.0)
        self.metrics.gauge("server.queue_depth").set(0.0)
        return drained and joined

    def __enter__(self) -> "PXQLServer":
        return self.start()

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.stop(drain=exc_type is None)

    def install_signal_handlers(
        self, signals: tuple[int, ...] = (signal.SIGTERM, signal.SIGINT)
    ) -> dict[int, object]:
        """Arrange graceful drain-then-stop on the given signals.

        Main thread only (a CPython restriction on ``signal.signal``).
        The handler hands shutdown to a background thread — signal
        handlers must return promptly — and returns the previous
        handlers so callers can restore them.
        """
        previous: dict[int, object] = {}

        def _handle(signum: int, frame: FrameType | None) -> None:
            self.tracer.event("server.signal", signum=signum)
            self.metrics.counter("server.signals").inc()
            threading.Thread(
                target=self.stop,
                kwargs={"drain": True},
                name=f"{self.name}-shutdown",
                daemon=True,
            ).start()

        for signum in signals:
            previous[signum] = signal.signal(signum, _handle)
        return previous

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(
        self, text: str, budget: Budget | None = None
    ) -> Future[Result]:
        """Admit one statement; returns the future that answers it.

        A repeated read the statement tier can answer is answered here,
        on the calling thread, and comes back resolved; anything else is
        queued for a worker, with nothing computed.

        Raises :class:`Overloaded` — and only :class:`Overloaded` — when
        the request cannot be admitted: ``reason="queue_full"`` under
        backpressure, ``"draining"``/``"stopped"`` during shutdown.
        Execution errors travel through the returned future instead.
        """
        if budget is None and self._budget_factory is not None:
            budget = self._budget_factory()
        with self._state_lock:
            self._admitting()
        answered = self._answered(text, budget)
        if answered is not None:
            return answered
        request = _Request(text, budget)
        # The state check and the enqueue are one atomic step: checking
        # under the lock, releasing it, and then putting would leave a
        # window where stop() sweeps the queue between the two — the
        # late put would land a request behind the sweep with every
        # worker released, never to be answered.  Holding the state lock
        # across the (non-blocking) put closes that window: any request
        # that observed "running" is in the queue before stop() can
        # transition the state, and therefore before its sweep.
        with self._state_lock:
            self._admitting()
            fault_point("server.submit.enqueue")
            depth = self._queue.qsize()
            if depth >= self._queue_size:
                self.metrics.counter("server.rejected").inc()
                raise Overloaded(
                    f"admission queue full ({self._queue_size} waiting); "
                    "retry later",
                    reason="queue_full",
                )
            self._queue.put(request)
        self.metrics.counter("server.submitted").inc()
        self.metrics.gauge("server.queue_depth").set(float(depth + 1))
        return request.future

    def _admitting(self) -> None:
        """Raise unless admissions are open (caller holds the state lock)."""
        state = self._state
        if state == _NEW:
            raise ServerError("server not started (call start())")
        if state != _RUNNING:
            self.metrics.counter("server.rejected").inc()
            raise Overloaded(
                f"server is {state}; not accepting requests",
                reason="draining" if state == _DRAINING else "stopped",
            )

    def _answered(
        self, text: str, budget: Budget | None
    ) -> Future[Result] | None:
        """The statement tier's answer as a resolved future, or ``None``
        for a miss.  Counted as submitted and as completed (or failed:
        the request's budget may have expired) before it is returned."""
        probe = self._interpreters[0]
        asked = (probe.database, text, probe.check, self.tracer, self.metrics)
        result: Result | None = None
        error: Exception | None = None
        try:
            if budget is None:
                result = answer_from_tier(*asked)
            else:
                with use_budget(budget):
                    result = answer_from_tier(*asked)
        except Exception as exc:
            error = exc
        if result is None and error is None:
            return None
        future: Future[Result] = new_future()
        self.metrics.counter("server.submitted").inc()
        if result is not None:
            self.metrics.counter("server.completed").inc()
            future.set_result(result)
        else:
            self.metrics.counter("server.failed").inc()
            future.set_exception(error)
        return future

    def execute(
        self,
        text: str,
        budget: Budget | None = None,
        timeout_s: float | None = None,
    ) -> Result:
        """Submit and wait: the blocking convenience form of :meth:`submit`."""
        value: object = wait(self.submit(text, budget=budget), timeout_s)
        if not isinstance(value, Result):
            # Not an assert: asserts vanish under ``python -O``, and a
            # type confusion here must fail loudly in every mode rather
            # than silently hand a non-Result to the caller.
            raise ServerError(
                "internal type confusion: worker resolved the request "
                f"with a non-Result {type(value).__name__!r}"
            )
        return value

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------
    def alive(self) -> bool:
        """Liveness: the pool was started and every worker is running."""
        with self._state_lock:
            if self._state not in (_RUNNING, _DRAINING):
                return False
        return bool(self._threads) and all(
            thread.is_alive() for thread in self._threads
        )

    def ready(self) -> bool:
        """Readiness: admissions are open and the queue has room."""
        with self._state_lock:
            if self._state != _RUNNING:
                return False
        return self.alive() and self._queue.qsize() < self._queue_size

    def health(self) -> dict[str, object]:
        """A probe snapshot: state, pool, queue, and request counters."""
        state = self.state
        depth = self._queue.qsize()
        unfinished = self._queue.unfinished_tasks
        return {
            "state": state,
            "alive": self.alive(),
            "ready": self.ready(),
            "workers": self.workers,
            "workers_alive": sum(1 for t in self._threads if t.is_alive()),
            "queue_depth": depth,
            "queue_capacity": self._queue_size,
            "inflight": max(0, unfinished - depth),
            "unfinished": unfinished,
            "submitted": self.metrics.value("server.submitted"),
            "completed": self.metrics.value("server.completed"),
            "failed": self.metrics.value("server.failed"),
            "rejected": self.metrics.value("server.rejected"),
            "aborted": self.metrics.value("server.aborted"),
        }

    def metrics_snapshot(self) -> dict[str, dict[str, object]]:
        """The registry as JSON (``GET /metrics``), with this process's
        cyclic-collector totals per generation as ``process.gc``."""
        return {**self.metrics.as_dict(), "process.gc": collector_stats()}

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    def _worker_loop(self, interpreter: Interpreter) -> None:
        # Blocks until a request or stop()'s ``None`` arrives: no poll.
        while (request := self._queue.get()) is not None:
            try:
                self._run_request(interpreter, request)
            finally:
                # Only now is the request finished for drain(): the
                # dequeue→execute handoff stays counted.
                self._queue.task_done()
        self._queue.task_done()

    def _run_request(
        self, interpreter: Interpreter, request: _Request
    ) -> None:
        def call() -> Result:
            # The handoff window: dequeued, not yet run.  The fault
            # point parks a worker exactly here in the drain-race
            # regression test; an error-kind fault resolves the request.
            fault_point("server.worker.handoff")
            self.metrics.gauge("server.queue_depth").set(
                float(self._queue.qsize())
            )
            self.metrics.histogram("server.queue_wait_s").observe(
                time.monotonic() - request.submitted_at
            )
            if request.budget is not None:
                with use_budget(request.budget):
                    return interpreter.execute(request.text)
            return interpreter.execute(request.text)

        try:
            # Replay the submitter's ContextVar snapshot in this worker:
            # threads do not inherit contextvars, so without this an
            # installed fault injector / budget / tracer rebinding would
            # silently not apply to the execution.
            result = request.context.run(call)
        except Exception as exc:
            # Count first, then resolve: a client that has its reply
            # must find it in /metrics.
            self.metrics.counter("server.failed").inc()
            request.future.set_exception(exc)
        else:
            self.metrics.counter("server.completed").inc()
            request.future.set_result(result)

    def __repr__(self) -> str:
        return (
            f"PXQLServer({self.name!r}, state={self.state}, "
            f"workers={self.workers}, queue={self._queue.qsize()}"
            f"/{self._queue_size})"
        )
