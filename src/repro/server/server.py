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
  :class:`~repro.pxql.interpreter.Interpreter` with its own plan,
  result and statement tiers (fresh result names are worker-prefixed,
  so two ``PROJECT ... `` statements without ``AS`` can never clash),
  while the database, tracer and metrics registry are shared and
  thread-safe — and with the database the immutable, token-stamped
  state derived from its instances (snapshots, dataguides, cost
  measurements: one per name per catalog object, see
  :meth:`repro.storage.derived.DerivedCache.of`);
* **shutdown** — :meth:`drain` stops admissions and waits for the
  queue and in-flight work to finish; :meth:`stop` then (or
  immediately, with ``drain=False``) halts the pool and resolves every
  still-queued request with ``Overloaded(reason="stopped")`` — a
  request is always answered, never abandoned.  Two details make the
  contract race-free: admission (the state check *and* the enqueue)
  happens atomically under the state lock, so a submission can never
  slip into the queue after the shutdown sweep; and idleness is judged
  by the queue's *task accounting* (admitted-but-unfinished count),
  not its depth, so a request sitting in the dequeue→execute handoff
  window can never make :meth:`drain` report a clean drain early;
* **probes** — :meth:`alive` (liveness: the pool is running) and
  :meth:`ready` (readiness: admissions are open and capacity remains)
  are cheap and lock-light, backed by the same :mod:`repro.obs`
  counters :meth:`health` exposes.

See ``docs/SERVER.md`` for the full model.
"""

from __future__ import annotations

import signal
import threading
import time
from collections.abc import Callable
from types import FrameType, TracebackType

from repro.errors import Overloaded, ServerError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.pxql.interpreter import Interpreter, Result
from repro.resilience.budget import Budget, use_budget
from repro.resilience.faults import fault_point
from repro.server.admission import AdmissionQueue, PendingResult, Request
from repro.storage.database import Database

_NEW = "new"
_RUNNING = "running"
_DRAINING = "draining"
_STOPPED = "stopped"


class _WorkerInterpreter(Interpreter):
    """An interpreter whose auto-generated result names carry the worker
    index (``_w3_result1``), so unnamed results from concurrent workers
    never collide in the shared catalog."""

    def __init__(self, worker: int, **kwargs: object) -> None:
        super().__init__(**kwargs)  # type: ignore[arg-type]
        self._worker = worker

    def _fresh_name(self) -> str:
        self._counter += 1
        return f"_w{self._worker}_result{self._counter}"


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
            interpreter); the default builds :class:`Interpreter` s
            sharing ``database``/``tracer``/``metrics`` with
            worker-prefixed fresh names.
        poll_s: worker idle-poll interval (also the drain poll).
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
        poll_s: float = 0.02,
        name: str = "pxql",
    ) -> None:
        if workers < 1:
            raise ServerError("a server needs at least one worker")
        self.database = database if database is not None else Database()
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.workers = workers
        self.name = name
        self._budget_factory = budget_factory
        self._interpreter_factory = (
            interpreter_factory
            if interpreter_factory is not None
            else self._default_interpreter
        )
        self._queue = AdmissionQueue(queue_size)
        self._poll_s = poll_s
        self._threads: list[threading.Thread] = []
        self._state = _NEW
        self._state_lock = threading.Lock()
        self._inflight = 0
        self._stop_event = threading.Event()

    def _default_interpreter(self, worker: int) -> Interpreter:
        return _WorkerInterpreter(
            worker,
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
        with self._state_lock:
            if self._state != _NEW:
                raise ServerError(
                    f"server cannot start from state {self._state!r}"
                )
            self._state = _RUNNING
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                args=(index,),
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

        Idleness is judged by the admission queue's task accounting
        (:attr:`AdmissionQueue.unfinished`), which counts a request
        from admission until its worker finishes it.  Checking queue
        depth plus the in-flight counter instead would race: a worker
        dequeues (depth drops to 0) *before* it registers as in-flight,
        and a drain polling inside that handoff window would observe
        "idle" and report a clean drain with a request still about to
        run.
        """
        with self._state_lock:
            if self._state == _RUNNING:
                self._state = _DRAINING
        deadline = time.monotonic() + timeout_s
        while True:
            if self._queue.unfinished == 0:
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(self._poll_s)

    def stop(self, drain: bool = True, timeout_s: float = 30.0) -> bool:
        """Halt the pool; returns whether shutdown completed cleanly.

        With ``drain=True`` (the default) queued and in-flight requests
        finish first (up to ``timeout_s``).  Either way, any request
        still queued when the pool halts is resolved with
        ``Overloaded(reason="stopped")`` — submitters always get an
        answer.  Idempotent.
        """
        drained = True
        if drain:
            drained = self.drain(timeout_s)
        with self._state_lock:
            if self._state == _STOPPED:
                return drained
            self._state = _DRAINING  # admissions stay closed while halting
        self._stop_event.set()
        deadline = time.monotonic() + timeout_s
        joined = True
        for thread in self._threads:
            remaining = max(0.0, deadline - time.monotonic())
            thread.join(timeout=remaining)
            joined = joined and not thread.is_alive()
        for request in self._queue.drain_pending():
            request.result.set_error(
                Overloaded("server stopped before execution", reason="stopped")
            )
            self.metrics.counter("server.aborted").inc()
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
    ) -> PendingResult:
        """Admit one statement; returns the future its worker resolves.

        Raises :class:`Overloaded` — and only :class:`Overloaded` — when
        the request cannot be admitted: ``reason="queue_full"`` under
        backpressure, ``"draining"``/``"stopped"`` during shutdown.
        Execution errors travel through the returned
        :class:`PendingResult` instead.
        """
        if budget is None and self._budget_factory is not None:
            budget = self._budget_factory()
        request = Request(text=text, budget=budget)
        # The state check and the enqueue are one atomic step: checking
        # under the lock, releasing it, and then putting would leave a
        # window where stop() sweeps the queue between the two — the
        # late put would land a request behind the sweep with every
        # worker halted, never to be answered.  Holding the state lock
        # across the (non-blocking) put closes that window: any request
        # that observed "running" is in the queue before stop() can
        # transition the state, and therefore before its sweep.
        with self._state_lock:
            state = self._state
            if state == _NEW:
                raise ServerError("server not started (call start())")
            if state != _RUNNING:
                self.metrics.counter("server.rejected").inc()
                raise Overloaded(
                    f"server is {state}; not accepting requests",
                    reason="draining" if state == _DRAINING else "stopped",
                )
            fault_point("server.submit.enqueue")
            try:
                self._queue.put(request)
            except Overloaded:
                self.metrics.counter("server.rejected").inc()
                raise
        self.metrics.counter("server.submitted").inc()
        self.metrics.gauge("server.queue_depth").set(float(self._queue.depth))
        return request.result

    def execute(
        self,
        text: str,
        budget: Budget | None = None,
        timeout_s: float | None = None,
    ) -> Result:
        """Submit and wait: the blocking convenience form of :meth:`submit`."""
        value = self.submit(text, budget=budget).result(timeout_s)
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
        return self.alive() and self._queue.depth < self._queue.maxsize

    def health(self) -> dict[str, object]:
        """A probe snapshot: state, pool, queue, and request counters."""
        with self._state_lock:
            state = self._state
            inflight = self._inflight
        return {
            "state": state,
            "alive": self.alive(),
            "ready": self.ready(),
            "workers": self.workers,
            "workers_alive": sum(1 for t in self._threads if t.is_alive()),
            "queue_depth": self._queue.depth,
            "queue_capacity": self._queue.maxsize,
            "inflight": inflight,
            "unfinished": self._queue.unfinished,
            "submitted": self.metrics.value("server.submitted"),
            "completed": self.metrics.value("server.completed"),
            "failed": self.metrics.value("server.failed"),
            "rejected": self.metrics.value("server.rejected"),
            "aborted": self.metrics.value("server.aborted"),
        }

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    def _worker_loop(self, index: int) -> None:
        interpreter = self._interpreter_factory(index)
        while not self._stop_event.is_set():
            request = self._queue.get(self._poll_s)
            if request is None:
                continue
            # From here until task_done() the request is counted by the
            # queue's unfinished accounting, so drain() can never see a
            # false idle inside this dequeue→execute handoff window.
            # The fault point parks a worker exactly here in the
            # regression test for the old depth/inflight TOCTOU; it runs
            # in the submitter's ContextVar snapshot so an ambient
            # injector reaches it, and an error-kind fault resolves the
            # request instead of abandoning it.
            try:
                try:
                    request.context.run(
                        fault_point, "server.worker.handoff"
                    )
                except Exception as exc:
                    self.metrics.counter("server.failed").inc()
                    request.result.set_error(exc)
                    continue
                with self._state_lock:
                    self._inflight += 1
                self.metrics.gauge("server.queue_depth").set(
                    float(self._queue.depth)
                )
                try:
                    self._run_request(interpreter, request)
                finally:
                    with self._state_lock:
                        self._inflight -= 1
            finally:
                self._queue.task_done()

    def _run_request(
        self, interpreter: Interpreter, request: Request
    ) -> None:
        self.metrics.histogram("server.queue_wait_s").observe(
            time.monotonic() - request.submitted_at
        )

        def call() -> Result:
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
            request.result.set_error(exc)
        else:
            self.metrics.counter("server.completed").inc()
            request.result.set_result(result)

    def __repr__(self) -> str:
        return (
            f"PXQLServer({self.name!r}, state={self.state}, "
            f"workers={self.workers}, queue={self._queue.depth}"
            f"/{self._queue.maxsize})"
        )
