"""Sharded multi-process PXQL serving: router, shard workers, scatter-gather.

The single-process :class:`~repro.server.server.PXQLServer` is correct
but GIL-bound.  This module scales it across *processes*:

* :class:`ShardConfig` — the picklable description of one shard: its
  catalog subdirectory, worker-pool shape, and (for chaos testing) the
  fault specs the shard installs in its own process — ContextVar-based
  injectors cannot cross a process boundary, so each shard re-creates
  its injector from the specs and a derived seed;
* ``_shard_main`` — the shard process entry point: a ``PXQLServer``
  thread pool over a shard-local :class:`Database` directory, driven by
  a small duplex-pipe RPC loop (execute / fetch / store / discard /
  names / health / metrics / drain / stop);
* :class:`ShardedServer` — the router: spawns N shard processes
  (``spawn`` start method — no fork-plus-threads hazards, and closing
  the child pipe end makes shard death visible as EOF), routes instance
  names to shards by consistent hashing over a vnode ring, keeps a
  *placement overlay* for derived results that live off their hash-home
  shard, and runs cross-shard ``PRODUCT`` as a scatter-gather step:
  fetch both serialized operands from their owning shards in parallel,
  combine with :func:`~repro.algebra.product.cartesian_product` in the
  router, store the product on the target name's shard.

**Error transport.**  Exceptions cross the pipe by *description* (type
name, message, and the structured attributes the router knows how to
rebuild), never by pickling live exception objects — a shard can
therefore never send the router something it cannot decode.  Known
types (``Overloaded``, ``BudgetExceeded``, ``DatabaseError``,
``FaultError``, ``LockTimeout``, ``ServerError``) are reconstructed
natively; everything else becomes a typed
:class:`~repro.errors.RemoteExecutionError`.  A dead shard answers
every in-flight and future request with
:class:`~repro.errors.ShardUnavailable` until
:meth:`ShardedServer.restart_shard` brings it back.

**Cache coherence.**  Each shard's engine caches are in memory and key
on a per-name ``(version, epoch)`` token (see ``Engine.cache_key``): a
write by another process moves the epoch of the names it touched, so
only entries scanning those names stop matching, and a restarted shard
starts cold — no router-coordinated invalidation protocol is needed.

See ``docs/SERVER.md`` ("Sharding and the async front door").
"""

from __future__ import annotations

import multiprocessing
import random
import threading
import time
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from pathlib import Path

from repro.errors import (
    BudgetExceeded,
    FaultError,
    LockTimeout,
    Overloaded,
    PXMLError,
    RebalanceError,
    RebalanceInProgress,
    RemoteExecutionError,
    ServerError,
    ShardConfigError,
    ShardUnavailable,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.pxql import ast
from repro.pxql.interpreter import Result
from repro.pxql.parser import parse_memo
from repro.resilience.budget import Budget
from repro.resilience.faults import FaultInjector, FaultSpec
from repro.resilience.retry import RetryPolicy
from repro.server.admission import PendingResult
from repro.server.rebalance import (
    MANIFEST_NAME,
    Move,
    Rebalancer,
    RebalanceStatus,
    ShardManifest,
    build_ring,
    plan_rebalance,
    read_manifest,
    resume_rebalance,
    ring_owner,
    write_manifest,
)
from repro.storage.database import Database, DatabaseError

__all__ = ["MANIFEST_NAME", "ShardConfig", "ShardedServer"]

#: Errors the router rebuilds natively from a shard's description.
_DECODABLE: dict[str, type[PXMLError]] = {
    "Overloaded": Overloaded,
    "BudgetExceeded": BudgetExceeded,
    "DatabaseError": DatabaseError,
    "FaultError": FaultError,
    "LockTimeout": LockTimeout,
    "RebalanceError": RebalanceError,
    "ServerError": ServerError,
}

#: Default watchdog backoff: 5 restart attempts per outage episode,
#: 100 ms doubling to a 5 s ceiling, deterministic (chaos tests replay).
DEFAULT_WATCHDOG_BACKOFF = RetryPolicy(
    attempts=5, base_delay_s=0.1, max_delay_s=5.0, jitter=0.0
)

#: Statements that mutate the catalog entry they name; the router
#: fences these on keys whose migration copy is in flight.
_MUTATORS = (ast.DropStatement, ast.SaveStatement, ast.LoadStatement)

#: Wrapper statements that are unwrapped for routing analysis.
_WRAPPERS = (
    ast.ExplainStatement,
    ast.CheckStatement,
    ast.ProfileStatement,
    ast.TimeoutStatement,
)


@dataclass(frozen=True)
class ShardConfig:
    """The picklable recipe one shard process is built from.

    Attributes:
        index: the shard's position in the ring (stable across restarts).
        directory: the shard-local catalog directory.
        workers: worker-thread count of the shard's ``PXQLServer``.
        queue_size: the shard's admission-queue bound.
        poll_s: the shard pool's idle-poll interval.
        default_deadline_s: default per-request deadline budget
            (``None`` = unbudgeted unless the request carries one).
        fault_specs: fault specs the shard installs in its own process
            (the router's ambient injector cannot cross ``spawn``).
        fault_seed: base seed; the shard derives ``fault_seed + index``
            so different shards see different—but reproducible—schedules.
    """

    index: int
    directory: str
    workers: int = 2
    queue_size: int = 16
    poll_s: float = 0.005
    default_deadline_s: float | None = None
    fault_specs: tuple[FaultSpec, ...] = ()
    fault_seed: int = 0


def _encode_error(exc: BaseException) -> dict[str, object]:
    """Describe an exception for pipe transport (never pickles it)."""
    payload: dict[str, object] = {
        "type": type(exc).__name__,
        "message": str(exc),
    }
    for attr in ("reason", "limit", "where"):
        value = getattr(exc, attr, None)
        if isinstance(value, str) and value:
            payload[attr] = value
    return payload


def _decode_error(payload: dict[str, object], shard: int) -> PXMLError:
    """Rebuild a shard's error description as a typed exception."""
    type_name = str(payload.get("type", "Exception"))
    message = str(payload.get("message", ""))
    if type_name == "Overloaded":
        reason = payload.get("reason")
        return Overloaded(
            message, reason=reason if isinstance(reason, str) else "queue_full"
        )
    if type_name == "BudgetExceeded":
        limit = payload.get("limit")
        where = payload.get("where")
        return BudgetExceeded(
            message,
            limit=limit if isinstance(limit, str) else "",
            where=where if isinstance(where, str) else "",
        )
    known = _DECODABLE.get(type_name)
    if known is not None:
        return known(message)
    return RemoteExecutionError(
        f"shard {shard} raised {type_name}: {message}", remote_type=type_name
    )


def _encode_result(result: Result) -> dict[str, object]:
    return {
        "value": result.value,
        "instance_name": result.instance_name,
        "text": result.text,
    }


def _decode_result(payload: dict[str, object]) -> Result:
    name = payload.get("instance_name")
    return Result(
        payload.get("value"),
        name if isinstance(name, str) else None,
        str(payload.get("text", "")),
    )


# ----------------------------------------------------------------------
# Shard process
# ----------------------------------------------------------------------
class _ShardRuntime:
    """The serving loop living inside one shard process."""

    def __init__(self, config: ShardConfig, conn: Connection) -> None:
        from repro.server.server import PXQLServer

        self.config = config
        self.conn = conn
        self.database = Database(config.directory)
        budget_factory: Callable[[], Budget] | None = None
        if config.default_deadline_s is not None:
            deadline = config.default_deadline_s
            budget_factory = lambda: Budget(deadline_s=deadline)  # noqa: E731
        self.server = PXQLServer(
            database=self.database,
            workers=config.workers,
            queue_size=config.queue_size,
            budget_factory=budget_factory,
            poll_s=config.poll_s,
            name=f"shard{config.index}",
        )
        self._send_lock = threading.Lock()

    def _send(self, message: dict[str, object]) -> None:
        """Send one response; pickling failures degrade to text form.

        A ``Result`` whose value is not picklable (a span tree, a live
        instance with exotic content) must not kill the shard loop —
        the textual rendering is re-sent in its place.
        """
        try:
            with self._send_lock:
                self.conn.send(message)
        except (OSError, EOFError):
            pass  # router is gone; the shard loop will see EOF and exit
        except Exception:  # noqa: BLE001 - unpicklable payloads
            fallback = dict(message)
            value = fallback.get("value")
            if isinstance(value, dict) and "text" in value:
                value = dict(value)
                value["value"] = value.get("text")
                fallback["value"] = value
            else:
                fallback["value"] = repr(value)
            try:
                with self._send_lock:
                    self.conn.send(fallback)
            except Exception:  # noqa: BLE001 - router gone mid-fallback
                pass

    def _on_execute(self, ident: int, message: dict[str, object]) -> None:
        text = str(message.get("text", ""))
        deadline = message.get("deadline_s")
        budget = (
            Budget(deadline_s=float(deadline))
            if isinstance(deadline, (int, float))
            else None
        )
        try:
            future = self.server.submit(text, budget=budget)
        except Exception as exc:  # noqa: BLE001 - transported, typed
            self._send({"id": ident, "ok": False, "error": _encode_error(exc)})
            return

        def _resolved(pending: PendingResult) -> None:
            error = pending.error(0.0)
            if error is not None:
                self._send(
                    {"id": ident, "ok": False, "error": _encode_error(error)}
                )
                return
            value = pending.result(0.0)
            if isinstance(value, Result):
                encoded: dict[str, object] = _encode_result(value)
            else:  # pragma: no cover - defended in PXQLServer.execute too
                encoded = {"value": None, "instance_name": None,
                           "text": repr(value)}
            self._send({"id": ident, "ok": True, "value": encoded})

        future.add_done_callback(_resolved)

    def _handle(self, message: dict[str, object]) -> bool:
        """Dispatch one request; returns whether to keep serving."""
        ident = message.get("id")
        if not isinstance(ident, int):
            return True
        op = message.get("op")
        if op == "execute":
            self._on_execute(ident, message)
            return True
        try:
            value = self._call(op, message)
        except Exception as exc:  # noqa: BLE001 - transported, typed
            self._send({"id": ident, "ok": False, "error": _encode_error(exc)})
            return op != "stop"
        self._send({"id": ident, "ok": True, "value": value})
        return op != "stop"

    def _call(self, op: object, message: dict[str, object]) -> object:
        from repro.io.json_codec import dumps, loads

        if op == "fetch":
            name = str(message.get("name", ""))
            return dumps(self.database.get(name))
        if op == "store":
            name = str(message.get("name", ""))
            instance = loads(str(message.get("payload", "")))
            self.database.register(name, instance, replace=True)
            if bool(message.get("save", False)):
                self.database.save(name)
            return name
        if op == "discard":
            name = str(message.get("name", ""))
            self.database.drop(name)
            return name
        if op == "names":
            return self.database.names()
        if op == "health":
            health = self.server.health()
            health["shard"] = self.config.index
            health["generation"] = self.database.generation()
            return health
        if op == "metrics":
            return self.server.metrics.as_dict()
        if op == "drain":
            timeout = message.get("timeout_s")
            return self.server.drain(
                float(timeout) if isinstance(timeout, (int, float)) else 30.0
            )
        if op == "stop":
            drain = bool(message.get("drain", True))
            timeout = message.get("timeout_s")
            return self.server.stop(
                drain=drain,
                timeout_s=(
                    float(timeout)
                    if isinstance(timeout, (int, float))
                    else 30.0
                ),
            )
        raise ServerError(f"shard {self.config.index}: unknown op {op!r}")

    def serve(self) -> None:
        self.server.start()
        try:
            while True:
                try:
                    message = self.conn.recv()
                except (EOFError, OSError):
                    break  # router gone: drain what we can, then exit
                if not isinstance(message, dict):
                    continue
                if not self._handle(message):
                    break
        finally:
            self.server.stop(drain=False, timeout_s=5.0)
            try:
                self.conn.close()
            except OSError:
                pass


def _shard_main(config: ShardConfig, conn: Connection) -> None:
    """Shard process entry point (must be a module-level name: ``spawn``
    imports it by reference in the fresh interpreter)."""
    injector = (
        FaultInjector(*config.fault_specs,
                      seed=config.fault_seed + config.index)
        if config.fault_specs
        else None
    )
    runtime = _ShardRuntime(config, conn)
    if injector is not None:
        # Installed in the shard's main thread: submissions snapshot the
        # ambient context, so every worker replays the injector.
        with injector:
            runtime.serve()
    else:
        runtime.serve()


# ----------------------------------------------------------------------
# Router side
# ----------------------------------------------------------------------
class _ShardHandle:
    """The router's connection to one shard process."""

    def __init__(self, config: ShardConfig) -> None:
        self.config = config
        self.index = config.index
        self._context = multiprocessing.get_context("spawn")
        self._process: BaseProcess | None = None
        self._conn: Connection | None = None
        self._reader: threading.Thread | None = None
        self._send_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: dict[int, PendingResult] = {}
        self._next_id = 0
        self._dead = True

    def start(self) -> None:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_shard_main,
            args=(self.config, child_conn),
            name=f"pxql-shard-{self.index}",
            daemon=True,
        )
        process.start()
        # Close the router's copy of the child end: otherwise the pipe
        # stays open after the shard dies and EOF never arrives.
        child_conn.close()
        self._process = process
        self._conn = parent_conn
        self._dead = False
        self._reader = threading.Thread(
            target=self._read_loop,
            name=f"pxql-shard-{self.index}-reader",
            daemon=True,
        )
        self._reader.start()

    @property
    def alive(self) -> bool:
        process = self._process
        return (
            not self._dead
            and process is not None
            and process.is_alive()
        )

    def _read_loop(self) -> None:
        conn = self._conn
        assert conn is not None
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if not isinstance(message, dict):
                continue
            ident = message.get("id")
            if not isinstance(ident, int):
                continue
            with self._pending_lock:
                pending = self._pending.pop(ident, None)
            if pending is not None:
                pending.set_result(message)
        # The shard is gone: answer everything still in flight.
        with self._pending_lock:
            self._dead = True
            orphaned = list(self._pending.values())
            self._pending.clear()
        for pending in orphaned:
            pending.set_error(
                ShardUnavailable(
                    f"shard {self.index} died with the request in flight",
                    shard=self.index,
                )
            )

    def request(self, payload: dict[str, object]) -> PendingResult:
        """Send one RPC; the future resolves with the raw response dict.

        Raises :class:`ShardUnavailable` when the shard is already dead
        (in-flight requests at death are resolved with the same error
        by the reader thread — no request is ever silently dropped).
        """
        with self._pending_lock:
            if self._dead:
                raise ShardUnavailable(
                    f"shard {self.index} is not running", shard=self.index
                )
            self._next_id += 1
            ident = self._next_id
            future = PendingResult()
            self._pending[ident] = future
        conn = self._conn
        assert conn is not None
        try:
            with self._send_lock:
                conn.send({**payload, "id": ident})
        except (OSError, ValueError, EOFError) as exc:
            with self._pending_lock:
                self._pending.pop(ident, None)
            raise ShardUnavailable(
                f"shard {self.index} is unreachable: {exc}", shard=self.index
            ) from exc
        return future

    def call(
        self, payload: dict[str, object], timeout_s: float = 30.0
    ) -> object:
        """Synchronous RPC: returns the value or raises the typed error."""
        response = self.request(payload).result(timeout_s)
        assert isinstance(response, dict)
        if response.get("ok"):
            return response.get("value")
        error = response.get("error")
        raise _decode_error(
            error if isinstance(error, dict) else {}, self.index
        )

    def kill(self) -> None:
        process = self._process
        if process is not None and process.is_alive():
            process.kill()
            process.join(timeout=10.0)
        # The reader thread observes EOF and fails in-flight requests.

    def join(self, timeout_s: float) -> bool:
        process = self._process
        if process is None:
            return True
        process.join(timeout=timeout_s)
        if process.is_alive():
            process.kill()
            process.join(timeout=5.0)
            return False
        return True

    def close(self) -> None:
        conn = self._conn
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass


class ShardedServer:
    """N shard processes behind a consistent-hash router.

    Args:
        directory: the root catalog directory; shard ``i`` owns the
            ``shard-i/`` subdirectory (a full ``Database`` directory
            with its own lock and generation counter).
        shards: shard-process count.
        workers_per_shard: worker-thread count inside each shard.
        queue_size: each shard's admission bound.
        poll_s: each shard pool's idle-poll interval.
        default_deadline_s: default per-request deadline applied by the
            shards (``None`` = unbudgeted).
        fault_specs: fault specs each shard installs in its own process
            (chaos testing; the router's ambient injector cannot cross
            the ``spawn`` boundary).
        fault_seed: base fault seed (shard ``i`` uses ``seed + i``).
        vnodes: virtual nodes per shard on the hash ring.
        metrics: the router's registry (own instance if omitted).
        tracer: the router's span collector (own instance if omitted).
        watchdog_interval_s: poll interval of the self-healing watchdog
            thread that auto-restarts EOF-dead shard processes
            (``None`` = watchdog off; chaos tests drive restarts by
            hand).
        watchdog_backoff: capped exponential backoff between restart
            attempts of one outage episode
            (:data:`DEFAULT_WATCHDOG_BACKOFF` if omitted); after
            ``attempts`` failed restarts the watchdog gives up on that
            shard until it is seen alive again
            (``router.watchdog_gave_up``).

    **Routing.**  An instance name's home shard is found by consistent
    hashing (SHA-256 positions, ``vnodes`` per shard).  Statements are
    routed to the home shard of their source instance; ``LIST`` is a
    broadcast-and-merge; a cross-shard ``PRODUCT`` is a scatter-gather
    run by the router.  Derived results (``AS`` targets, fresh names)
    are created on the shard that executed the statement, which may not
    be the name's hash home — the router records these in a *placement
    overlay* consulted before the ring, rebuilt from the shards' actual
    catalogs on start/restart, so later statements find them.
    """

    def __init__(
        self,
        directory: str | Path,
        shards: int = 2,
        workers_per_shard: int = 2,
        queue_size: int = 16,
        poll_s: float = 0.005,
        default_deadline_s: float | None = None,
        fault_specs: Sequence[FaultSpec] = (),
        fault_seed: int = 0,
        vnodes: int = 64,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        name: str = "pxql-shards",
        watchdog_interval_s: float | None = None,
        watchdog_backoff: RetryPolicy | None = None,
    ) -> None:
        if shards < 1:
            raise ServerError("a sharded server needs at least one shard")
        self.directory = Path(directory)
        self.shards = shards
        self.name = name
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self._workers_per_shard = workers_per_shard
        self._queue_size = queue_size
        self._poll_s = poll_s
        self._default_deadline_s = default_deadline_s
        self._fault_specs = tuple(fault_specs)
        self._fault_seed = fault_seed
        self._handles: list[_ShardHandle] = [
            _ShardHandle(self._shard_config(index)) for index in range(shards)
        ]
        self._vnodes = vnodes
        self._layout_epoch = 0
        self._ring_positions, self._ring_owners = build_ring(shards, vnodes)
        #: Derived-result placements that differ from the ring's answer.
        self._overlay: dict[str, int] = {}
        self._overlay_lock = threading.Lock()
        #: Per-key migration state during a live resize:
        #: name -> (move, phase); phase "pending"/"copying" route to the
        #: source, "committed" to the destination; "copying" also fences
        #: writes.  Cleared when the ring flips to the new layout.
        self._migration: dict[str, tuple[Move, str]] = {}
        self._migration_lock = threading.Lock()
        self._rebalance_lock = threading.Lock()
        self._rebalance_status = RebalanceStatus()
        self._counter = 0
        self._counter_lock = threading.Lock()
        #: Routing needs only the AST, and the same texts keep coming.
        self._parse = parse_memo()
        self._pool = ThreadPoolExecutor(
            max_workers=max(2, shards), thread_name_prefix=f"{name}-router"
        )
        self._started = False
        self._stopping = False
        self._watchdog_interval_s = watchdog_interval_s
        self._watchdog_policy = (
            watchdog_backoff if watchdog_backoff is not None
            else DEFAULT_WATCHDOG_BACKOFF
        )
        self._watchdog_stop = threading.Event()
        self._watchdog: threading.Thread | None = None
        self._watchdog_state: dict[int, dict[str, float]] = {}
        #: Wait bound for the internal fetch/store legs of scatter-gather.
        self.scatter_timeout_s = 30.0

    def _shard_config(self, index: int) -> ShardConfig:
        return ShardConfig(
            index=index,
            directory=str(self.directory / f"shard-{index}"),
            workers=self._workers_per_shard,
            queue_size=self._queue_size,
            poll_s=self._poll_s,
            default_deadline_s=self._default_deadline_s,
            fault_specs=self._fault_specs,
            fault_seed=self._fault_seed,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShardedServer":
        """Spawn every shard process and rebuild the placement overlay.

        Before anything is spawned, an unfinished shard migration (a
        pending ``rebalance.journal`` left by a crash mid-``resize``)
        is *resumed* offline — committed cutovers keep their
        destination, uncommitted copies re-run from the
        still-authoritative source — so the manifest the count check
        reads is always a consistent layout.

        Raises :class:`~repro.errors.ShardConfigError` when the
        directory's ``shards.json`` manifest records a different shard
        count than this server was constructed with — names were placed
        by hashing over *that* ring, so reopening with another count
        would route them to the wrong shards (use :meth:`resize` to
        migrate to a new count).
        """
        if self._started:
            raise ServerError("sharded server already started")
        self.directory.mkdir(parents=True, exist_ok=True)
        self._resume_pending_rebalance()
        self._check_manifest()
        for handle in self._handles:
            handle.start()
        self._started = True
        self._stopping = False
        self._rebuild_overlay()
        self._adopt_root_catalog()
        if self._watchdog_interval_s is not None:
            self._watchdog_stop.clear()
            self._watchdog = threading.Thread(
                target=self._watchdog_loop,
                name=f"{self.name}-watchdog",
                daemon=True,
            )
            self._watchdog.start()
        self.metrics.gauge("router.shards").set(float(self.shards))
        self.metrics.gauge("router.layout_epoch").set(
            float(self._layout_epoch)
        )
        return self

    def _resume_pending_rebalance(self) -> None:
        """Finish a torn migration before serving (offline, in-process)."""
        try:
            status = resume_rebalance(self.directory)
        except RebalanceError as exc:
            raise ShardConfigError(
                f"directory {self.directory} has an unresolvable pending "
                f"rebalance: {exc}",
                configured=self.shards,
            ) from exc
        if status is not None:
            self.metrics.counter("router.rebalances_resumed").inc()
            self.tracer.event(
                "router.rebalance_resumed",
                to_epoch=status.to_epoch,
                moves=status.total_moves,
            )

    def __enter__(self) -> "ShardedServer":
        return self.start()

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.stop(drain=exc_type is None)

    def drain(self, timeout_s: float = 30.0) -> bool:
        """Drain every live shard; whether all finished in time."""
        futures = []
        for handle in self._handles:
            if not handle.alive:
                continue
            try:
                futures.append(
                    handle.request({"op": "drain", "timeout_s": timeout_s})
                )
            except ShardUnavailable:
                continue
        drained = True
        for future in futures:
            try:
                response = future.result(timeout_s + 5.0)
            except PXMLError:
                drained = False
                continue
            assert isinstance(response, dict)
            drained = drained and bool(
                response.get("ok") and response.get("value")
            )
        return drained

    def stop(self, drain: bool = True, timeout_s: float = 30.0) -> bool:
        """Stop every shard (drain first by default) and reap processes."""
        self._stopping = True
        watchdog = self._watchdog
        if watchdog is not None:
            self._watchdog_stop.set()
            watchdog.join(timeout=5.0)
            self._watchdog = None
        clean = True
        for handle in self._handles:
            if not handle.alive:
                continue
            try:
                handle.request(
                    {"op": "stop", "drain": drain, "timeout_s": timeout_s}
                )
            except ShardUnavailable:
                clean = False
        deadline = time.monotonic() + timeout_s
        for handle in self._handles:
            remaining = max(0.5, deadline - time.monotonic())
            clean = handle.join(remaining) and clean
            handle.close()
        self._pool.shutdown(wait=False)
        self.metrics.gauge("router.shards").set(0.0)
        return clean

    def kill_shard(self, index: int) -> None:
        """Hard-kill one shard process (chaos hook).

        In-flight requests to it resolve with
        :class:`~repro.errors.ShardUnavailable`; later submissions that
        route to it raise the same until :meth:`restart_shard`.
        """
        self._check_index(index)
        self._handles[index].kill()
        self.metrics.counter("router.shard_kills").inc()
        self.tracer.event("router.shard_killed", shard=index)

    def restart_shard(self, index: int) -> None:
        """Start a fresh process for one shard over its directory.

        The replacement re-opens the same catalog directory with empty
        engine caches: the first touch of each statement recomputes.
        """
        self._check_index(index)
        handle = self._handles[index]
        handle.kill()
        handle.close()
        replacement = _ShardHandle(handle.config)
        replacement.start()
        self._handles[index] = replacement
        self._refresh_overlay(index)
        self.metrics.counter("router.shard_restarts").inc()
        self.tracer.event("router.shard_restarted", shard=index)

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.shards:
            raise ServerError(f"no shard {index} (have {self.shards})")

    # ------------------------------------------------------------------
    # Self-healing watchdog
    # ------------------------------------------------------------------
    def _watchdog_loop(self) -> None:
        """Auto-restart EOF-dead shards with capped exponential backoff.

        One outage episode per shard: each failed (or immediately
        re-died) restart consumes an attempt and backs off per
        ``watchdog_backoff``; after the last attempt the watchdog gives
        up on that shard (``router.watchdog_gave_up``) until it is
        observed alive again — a manual :meth:`restart_shard` or a
        recovered process resets the episode.
        """
        interval = self._watchdog_interval_s
        assert interval is not None
        rng = random.Random(self._fault_seed)
        while not self._watchdog_stop.wait(interval):
            if not self._started or self._stopping:
                continue
            for index in range(min(self.shards, len(self._handles))):
                try:
                    handle = self._handles[index]
                except IndexError:  # racing a shrink
                    break
                state = self._watchdog_state.setdefault(
                    index, {"attempts": 0.0, "next": 0.0, "gave_up": 0.0}
                )
                if handle.alive:
                    state["attempts"] = 0.0
                    state["gave_up"] = 0.0
                    continue
                if state["gave_up"]:
                    continue
                if state["attempts"] >= self._watchdog_policy.attempts:
                    state["gave_up"] = 1.0
                    self.metrics.counter("router.watchdog_gave_up").inc()
                    self.tracer.event("router.watchdog_gave_up", shard=index)
                    continue
                now = time.monotonic()
                if now < state["next"]:
                    continue
                attempt = int(state["attempts"])
                state["attempts"] += 1.0
                state["next"] = now + self._watchdog_policy.delay_for(
                    attempt, rng
                )
                if self._stopping:
                    continue
                try:
                    self.restart_shard(index)
                except PXMLError:
                    continue  # next pass retries within the episode
                self.metrics.counter("router.watchdog_restarts").inc()
                self.tracer.event(
                    "router.watchdog_restarted", shard=index,
                    attempt=attempt + 1,
                )

    # ------------------------------------------------------------------
    # Live rebalancing
    # ------------------------------------------------------------------
    def resize(self, shards: int, timeout_s: float = 120.0) -> RebalanceStatus:
        """Migrate the catalog to ``shards`` shard processes, live.

        Serving continues throughout: each key is copied then cut over
        individually (reads follow the per-key migration state, writes
        to a key whose copy is in flight get a retryable
        :class:`~repro.errors.RebalanceInProgress`), and the whole
        migration is journaled so a crash at any instant is resumed —
        never restarted — by the next :meth:`start`.  On success the
        ring flips to the new layout and ``layout_epoch`` advances.

        Raises :class:`~repro.errors.RebalanceError` for an invalid
        target count or when a resize is already running.
        """
        if not self._started:
            raise ServerError("sharded server not started (call start())")
        if shards < 1:
            raise RebalanceError(
                f"cannot resize to {shards} shard(s): need at least one"
            )
        if not self._rebalance_lock.acquire(blocking=False):
            raise RebalanceError("a rebalance is already in progress")
        try:
            return self._resize_locked(shards, timeout_s)
        finally:
            self._rebalance_lock.release()

    def _resize_locked(
        self, shards: int, timeout_s: float
    ) -> RebalanceStatus:
        old = self.shards
        status = RebalanceStatus(
            state="planning",
            from_epoch=self._layout_epoch,
            to_epoch=self._layout_epoch,
            old_shards=old,
            new_shards=shards,
        )
        self._rebalance_status = status
        if shards == old:
            status.state = "done"
            return status
        # Grow first: destination processes must serve before any copy.
        for index in range(old, shards):
            handle = _ShardHandle(self._shard_config(index))
            handle.start()
            self._handles.append(handle)
        try:
            placements: dict[str, int] = {}
            for handle in self._handles[:old]:
                names = handle.call({"op": "names"}, timeout_s=10.0)
                if isinstance(names, list):
                    for name in names:
                        if isinstance(name, str):
                            placements[name] = handle.index
            plan = plan_rebalance(
                placements, old, shards,
                vnodes=self._vnodes, from_epoch=self._layout_epoch,
            )
            with self._migration_lock:
                self._migration = {
                    move.name: (move, "pending") for move in plan.moves
                }
            status.total_moves = len(plan.moves)
            rebalancer = Rebalancer(
                self.directory,
                _LiveShardAccess(self),
                on_phase=self._on_migration_phase,
                status=status,
            )
            with self.tracer.span(
                "router.rebalance", old_shards=old, new_shards=shards,
                moves=len(plan.moves), to_epoch=plan.to_epoch,
            ):
                rebalancer.execute(plan)
        except BaseException as exc:
            status.state = "failed"
            status.error = str(exc)
            # Committed cutovers keep routing to their destination (the
            # source copy may already be gone); everything earlier
            # reverts to plain routing and is writable again.  The
            # journal still holds the pending plan, so the next
            # start() finishes the migration offline.
            with self._migration_lock:
                self._migration = {
                    name: entry
                    for name, entry in self._migration.items()
                    if entry[1] == "committed"
                }
            self.metrics.counter("router.rebalances_failed").inc()
            raise
        # Flip the ring: the new layout owns every key; committed-move
        # routing and the fences retire with the migration map.
        self._ring_positions, self._ring_owners = build_ring(
            shards, self._vnodes
        )
        self.shards = shards
        self._layout_epoch = plan.to_epoch
        with self._migration_lock:
            self._migration = {}
        if shards < old:
            retired = self._handles[shards:]
            del self._handles[shards:]
            for handle in retired:
                self._watchdog_state.pop(handle.index, None)
                try:
                    handle.request(
                        {"op": "stop", "drain": True, "timeout_s": timeout_s}
                    )
                except ShardUnavailable:
                    pass
                handle.join(timeout_s)
                handle.close()
        self._rebuild_overlay()
        self.metrics.gauge("router.shards").set(float(self.shards))
        self.metrics.gauge("router.layout_epoch").set(
            float(self._layout_epoch)
        )
        self.metrics.counter("router.rebalances").inc()
        self.tracer.event(
            "router.rebalanced",
            old_shards=old, new_shards=shards,
            moves=status.total_moves, layout_epoch=self._layout_epoch,
        )
        return status

    def _on_migration_phase(self, name: str, phase: str) -> None:
        """Flip one key's routing exactly at its durable cutover."""
        with self._migration_lock:
            entry = self._migration.get(name)
            if entry is None:
                return
            move = entry[0]
            if phase == "done":
                # Keep routing to the destination until the ring flips.
                self._migration[name] = (move, "committed")
            else:
                self._migration[name] = (move, phase)

    def rebalance_status(self) -> dict[str, object]:
        """The last/current migration's progress, plus the live layout."""
        snapshot = self._rebalance_status.as_dict()
        snapshot["layout_epoch"] = self._layout_epoch
        snapshot["shards"] = self.shards
        return snapshot

    def _check_manifest(self) -> None:
        """Write ``shards.json`` on first init; refuse a count mismatch.

        Reopening with a different shard count is an error, never a
        silent rehash — names were placed over the recorded ring.  Use
        :meth:`resize` (which migrates and bumps the layout epoch) to
        change the count.  The recorded vnode count and layout epoch
        are adopted, so a server constructed before a rebalance bumped
        the epoch still reports the durable one.
        """
        try:
            manifest = read_manifest(self.directory)
        except RebalanceError as exc:
            raise ShardConfigError(
                str(exc), configured=self.shards
            ) from exc
        if manifest is None:
            write_manifest(
                self.directory,
                ShardManifest(
                    shards=self.shards,
                    vnodes=self._vnodes,
                    layout_epoch=0,
                ),
            )
            self._layout_epoch = 0
            return
        if manifest.shards != self.shards:
            raise ShardConfigError(
                f"directory {self.directory} was sharded with "
                f"{manifest.shards} shard(s) but this server is "
                f"configured for {self.shards}; reopen with the recorded "
                "count, then resize(n) to migrate live",
                configured=self.shards,
                recorded=manifest.shards,
            )
        if manifest.vnodes != self._vnodes:
            self._vnodes = manifest.vnodes
            self._ring_positions, self._ring_owners = build_ring(
                self.shards, self._vnodes
            )
        self._layout_epoch = manifest.layout_epoch

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def owner(self, name: str) -> int:
        """The shard an instance name is *served* by, right now.

        Consulted in order: the per-key migration state (a committed
        cutover owns the name at its destination, anything earlier
        still at its source), the placement overlay, then the ring.
        """
        with self._migration_lock:
            entry = self._migration.get(name)
        if entry is not None:
            move, phase = entry
            return move.dest if phase == "committed" else move.source
        with self._overlay_lock:
            placed = self._overlay.get(name)
        if placed is not None:
            return placed
        return ring_owner(self._ring_positions, self._ring_owners, name)

    def _record_placement(self, name: str, shard: int) -> None:
        home = ring_owner(self._ring_positions, self._ring_owners, name)
        with self._overlay_lock:
            if home == shard:
                self._overlay.pop(name, None)
            else:
                self._overlay[name] = shard

    def _forget_placement(self, name: str) -> None:
        with self._overlay_lock:
            self._overlay.pop(name, None)

    def _rebuild_overlay(self) -> None:
        with self._overlay_lock:
            self._overlay.clear()
        for handle in self._handles:
            self._refresh_overlay(handle.index)

    def _refresh_overlay(self, index: int) -> None:
        """Re-learn which names actually live on shard ``index``."""
        handle = self._handles[index]
        with self._overlay_lock:
            stale = [
                name for name, shard in self._overlay.items()
                if shard == index
            ]
            for name in stale:
                del self._overlay[name]
        if not handle.alive:
            return
        try:
            names = handle.call({"op": "names"}, timeout_s=10.0)
        except PXMLError:
            return
        if isinstance(names, list):
            for name in names:
                if isinstance(name, str):
                    self._record_placement(name, index)

    def _adopt_root_catalog(self) -> None:
        """Import loose instances from the root directory onto their
        home shards (first start over a pre-sharding catalog).

        Pointing ``--shards N`` at a directory previously served by a
        single-process server must not silently serve an empty catalog:
        instances sitting at the root are placed (and saved) on their
        hash-home shards.  Names some shard already serves are skipped,
        so a restart never overwrites newer shard-local versions; the
        root files are left in place as the pre-migration originals.
        """
        from repro.io.json_codec import dumps

        try:
            root = Database(self.directory)
            loose = root.names()
        except PXMLError:
            return
        if not loose:
            return
        served: set[str] = set()
        for handle in self._handles:
            if not handle.alive:
                continue
            try:
                names = handle.call({"op": "names"}, timeout_s=10.0)
            except PXMLError:
                continue
            if isinstance(names, list):
                served.update(n for n in names if isinstance(n, str))
        adopted = 0
        for name in loose:
            if name in served:
                continue
            try:
                self.register_instance(name, dumps(root.get(name)))
            except PXMLError:
                continue  # a corrupt/racing root file never blocks startup
            adopted += 1
        if adopted:
            self.metrics.counter("router.adopted_instances").inc(adopted)
            self.tracer.event("router.adopted_instances", count=adopted)

    def _fresh_name(self) -> str:
        with self._counter_lock:
            self._counter += 1
            return f"_router_result{self._counter}"

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(
        self, text: str, deadline_s: float | None = None
    ) -> PendingResult:
        """Route one statement; returns the future the router resolves.

        Mirrors :meth:`PXQLServer.submit`: admission problems raise
        :class:`~repro.errors.Overloaded` /
        :class:`~repro.errors.ShardUnavailable` synchronously, execution
        errors travel through the returned future as typed exceptions.
        """
        if not self._started:
            raise ServerError("sharded server not started (call start())")
        self.metrics.counter("router.submitted").inc()
        try:
            statement, _spans = self._parse(text)
        except PXMLError as exc:
            # Parse errors are execution errors, not admission errors:
            # surface them through the future like the thread server does.
            future = PendingResult()
            future.set_error(exc)
            self.metrics.counter("router.failed").inc()
            return future
        inner = statement
        while isinstance(inner, _WRAPPERS):
            inner = inner.statement
        fenced = self._fenced_write(inner)
        if fenced is not None:
            future = PendingResult()
            future.set_error(RebalanceInProgress(
                f"instance {fenced!r} is mid-migration (copy in flight); "
                "retry shortly",
                name=fenced,
            ))
            self.metrics.counter("router.writes_fenced").inc()
            self.metrics.counter("router.failed").inc()
            return future
        if isinstance(inner, ast.ProductStatement):
            left_owner = self.owner(inner.left)
            right_owner = self.owner(inner.right)
            if left_owner != right_owner:
                if not isinstance(
                    statement, (ast.ProductStatement, ast.TimeoutStatement)
                ):
                    future = PendingResult()
                    future.set_error(ServerError(
                        "cross-shard PRODUCT cannot run under "
                        f"{type(statement).__name__}: both operands must "
                        "live on one shard for wrapped statements"
                    ))
                    self.metrics.counter("router.failed").inc()
                    return future
                return self._submit_scatter_product(
                    inner, left_owner, right_owner, deadline_s
                )
        if isinstance(inner, ast.ListStatement):
            return self._submit_broadcast_list()
        shard = self._route(inner)
        return self._submit_to_shard(shard, text, deadline_s, inner)

    def execute(
        self,
        text: str,
        deadline_s: float | None = None,
        timeout_s: float | None = None,
    ) -> Result:
        """Submit and wait: the blocking convenience form of :meth:`submit`."""
        value = self.submit(text, deadline_s=deadline_s).result(timeout_s)
        if not isinstance(value, Result):
            raise ServerError(
                "internal type confusion: router resolved the request "
                f"with a non-Result {type(value).__name__!r}"
            )
        return value

    def _fenced_write(self, inner: ast.Statement) -> str | None:
        """The first mutated name whose migration copy is in flight.

        A write accepted on the source *after* the copy read it would
        silently vanish at cutover, so mutating statements (``DROP`` /
        ``SAVE`` / ``LOAD`` and any ``AS``-target derivation) on a key
        in its copy window are refused with the typed retryable
        :class:`~repro.errors.RebalanceInProgress` instead.  The window
        closes at the durable ``move-commit`` — typically milliseconds.
        """
        names: list[str] = []
        if isinstance(inner, _MUTATORS):
            names.append(inner.name)
        target = getattr(inner, "target", None)
        if isinstance(target, str):
            names.append(target)
        if not names:
            return None
        with self._migration_lock:
            for name in names:
                entry = self._migration.get(name)
                if entry is not None and entry[1] == "copying":
                    return name
        return None

    def _route(self, inner: ast.Statement) -> int:
        """The shard a (non-product, non-list) statement belongs on."""
        source = getattr(inner, "source", None)
        if isinstance(source, str):
            return self.owner(source)
        name = getattr(inner, "name", None)
        if isinstance(name, str):
            return self.owner(name)
        if isinstance(inner, ast.ProductStatement):
            return self.owner(inner.left)  # same-shard product
        # Sourceless statements (SET ...) go to shard 0.
        return 0

    def _submit_to_shard(
        self,
        shard: int,
        text: str,
        deadline_s: float | None,
        inner: ast.Statement,
        retried: bool = False,
    ) -> PendingResult:
        handle = self._handles[shard]
        outer = PendingResult()
        payload: dict[str, object] = {"op": "execute", "text": text}
        if deadline_s is not None:
            payload["deadline_s"] = deadline_s
        remote = handle.request(payload)  # raises ShardUnavailable when dead

        def _failed(error: BaseException) -> None:
            """Fail ``outer`` — after one dual-check retry at the key's
            new owner when the failure is a cutover race."""
            retry_shard = self._dual_check_shard(inner, shard, error, retried)
            if retry_shard is None:
                self.metrics.counter("router.failed").inc()
                outer.set_error(error)
                return
            self.metrics.counter("router.dual_check_retries").inc()
            chained = self._submit_to_shard(
                retry_shard, text, deadline_s, inner, retried=True
            )

            def _chain(p: PendingResult) -> None:
                chained_error = p.error(0.0)
                if chained_error is not None:
                    outer.set_error(chained_error)
                else:
                    outer.set_result(p.result(0.0))

            chained.add_done_callback(_chain)

        def _resolved(pending: PendingResult) -> None:
            error = pending.error(0.0)
            if error is not None:
                _failed(error)
                return
            response = pending.result(0.0)
            assert isinstance(response, dict)
            if not response.get("ok"):
                raw = response.get("error")
                _failed(_decode_error(
                    raw if isinstance(raw, dict) else {}, shard
                ))
                return
            value = response.get("value")
            result = (
                _decode_result(value) if isinstance(value, dict)
                else Result(None, None, repr(value))
            )
            if result.instance_name is not None:
                self._record_placement(result.instance_name, shard)
            if isinstance(inner, ast.DropStatement):
                self._forget_placement(inner.name)
            self.metrics.counter("router.completed").inc()
            outer.set_result(result)

        remote.add_done_callback(_resolved)
        return outer

    def _dual_check_shard(
        self,
        inner: ast.Statement,
        shard: int,
        error: BaseException,
        retried: bool,
    ) -> int | None:
        """Where to retry a failed statement whose key moved mid-flight.

        During a migration a read routed to the source shard can lose
        the race with the cutover (the source copy is deleted right
        after ``move-commit``) and come back as an unknown-instance
        :class:`DatabaseError` — or as :class:`ShardUnavailable` when
        the source died.  If the statement's key is now owned by a
        different shard, the read is retried exactly once there; any
        other failure stays a failure.
        """
        if retried or not isinstance(
            error, (DatabaseError, ShardUnavailable)
        ):
            return None
        source = getattr(inner, "source", None)
        name = (
            source if isinstance(source, str)
            else getattr(inner, "name", None)
        )
        if not isinstance(name, str):
            return None
        current = self.owner(name)
        if current == shard or not 0 <= current < len(self._handles):
            return None
        return current

    def _submit_broadcast_list(self) -> PendingResult:
        """``LIST`` fans to every live shard; the union comes back."""
        outer = PendingResult()
        futures: list[tuple[int, PendingResult]] = []
        for handle in self._handles:
            if not handle.alive:
                continue
            try:
                futures.append(
                    (handle.index, handle.request({"op": "names"}))
                )
            except ShardUnavailable:
                continue

        def _gather() -> None:
            names: set[str] = set()
            try:
                for shard, future in futures:
                    response = future.result(self.scatter_timeout_s)
                    assert isinstance(response, dict)
                    if not response.get("ok"):
                        raw = response.get("error")
                        raise _decode_error(
                            raw if isinstance(raw, dict) else {}, shard
                        )
                    value = response.get("value")
                    if isinstance(value, list):
                        names.update(n for n in value if isinstance(n, str))
            except Exception as exc:  # noqa: BLE001 - typed via decode
                self.metrics.counter("router.failed").inc()
                outer.set_error(exc)
                return
            merged = sorted(names)
            self.metrics.counter("router.completed").inc()
            outer.set_result(
                Result(merged, None, "\n".join(merged) if merged else "(empty)")
            )

        self._pool.submit(_gather)
        return outer

    # ------------------------------------------------------------------
    # Scatter-gather product
    # ------------------------------------------------------------------
    def _submit_scatter_product(
        self,
        stmt: ast.ProductStatement,
        left_owner: int,
        right_owner: int,
        deadline_s: float | None,
    ) -> PendingResult:
        """Cross-shard ``PRODUCT``: fetch both operands in parallel,
        combine in the router, store on the target name's home shard."""
        outer = PendingResult()
        self.metrics.counter("router.scatter_products").inc()
        timeout = deadline_s if deadline_s is not None else self.scatter_timeout_s

        def _run() -> None:
            from repro.algebra.product import cartesian_product
            from repro.io.json_codec import dumps, loads

            try:
                with self.tracer.span(
                    "router.scatter_product",
                    left=stmt.left, right=stmt.right,
                    left_shard=left_owner, right_shard=right_owner,
                ):
                    left_handle = self._handles[left_owner]
                    right_handle = self._handles[right_owner]
                    # Scatter: both fetches in flight concurrently.
                    left_future = left_handle.request(
                        {"op": "fetch", "name": stmt.left}
                    )
                    right_future = right_handle.request(
                        {"op": "fetch", "name": stmt.right}
                    )
                    left_payload = self._gather_fetch(
                        left_future, left_owner, timeout
                    )
                    right_payload = self._gather_fetch(
                        right_future, right_owner, timeout
                    )
                    product = cartesian_product(
                        loads(left_payload),
                        loads(right_payload),
                        stmt.new_root,
                    )
                    target = (
                        stmt.target if stmt.target is not None
                        else self._fresh_name()
                    )
                    target_owner = self.owner(target)
                    self._handles[target_owner].call(
                        {
                            "op": "store",
                            "name": target,
                            "payload": dumps(product),
                        },
                        timeout_s=timeout,
                    )
                    self._record_placement(target, target_owner)
            except Exception as exc:  # noqa: BLE001 - typed transport
                self.metrics.counter("router.failed").inc()
                outer.set_error(
                    exc if isinstance(exc, PXMLError)
                    else ServerError(f"scatter-gather product failed: {exc}")
                )
                return
            self.metrics.counter("router.completed").inc()
            outer.set_result(
                Result(
                    product, target,
                    f"product of {stmt.left} and {stmt.right} -> {target} "
                    f"({len(product)} objects)",
                )
            )

        self._pool.submit(_run)
        return outer

    def _gather_fetch(
        self, future: PendingResult, shard: int, timeout_s: float
    ) -> str:
        response = future.result(timeout_s)
        assert isinstance(response, dict)
        if not response.get("ok"):
            raw = response.get("error")
            raise _decode_error(raw if isinstance(raw, dict) else {}, shard)
        value = response.get("value")
        if not isinstance(value, str):
            raise ServerError(
                f"shard {shard} answered a fetch with {type(value).__name__}"
            )
        return value

    # ------------------------------------------------------------------
    # Catalog access
    # ------------------------------------------------------------------
    def register_instance(
        self, name: str, payload: str, save: bool = True
    ) -> int:
        """Place a serialized instance on its home shard; returns the shard.

        ``payload`` is the JSON text of
        :func:`repro.io.json_codec.dumps` — the router never holds live
        instances for routine placement, only their wire form.
        """
        shard = self.owner(name)
        self._handles[shard].call(
            {"op": "store", "name": name, "payload": payload, "save": save},
            timeout_s=self.scatter_timeout_s,
        )
        self._record_placement(name, shard)
        return shard

    def fetch_instance(self, name: str) -> str:
        """The serialized JSON of ``name`` from its owning shard."""
        value = self._handles[self.owner(name)].call(
            {"op": "fetch", "name": name}, timeout_s=self.scatter_timeout_s
        )
        if not isinstance(value, str):
            raise ServerError(
                f"fetch of {name!r} answered {type(value).__name__}"
            )
        return value

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------
    def alive(self) -> bool:
        """Liveness: started and every shard process is running."""
        return self._started and all(h.alive for h in self._handles)

    def ready(self) -> bool:
        """Readiness: at least every shard is up (degrading routers are
        not ready — a request may route to the dead shard)."""
        return self.alive()

    def health(self) -> dict[str, object]:
        """Router counters plus each live shard's own health probe."""
        shard_health: list[dict[str, object]] = []
        for handle in self._handles:
            if not handle.alive:
                shard_health.append(
                    {"shard": handle.index, "state": "dead", "alive": False}
                )
                continue
            try:
                health = handle.call({"op": "health"}, timeout_s=5.0)
            except PXMLError as exc:
                shard_health.append(
                    {"shard": handle.index, "state": "unreachable",
                     "alive": False, "error": str(exc)}
                )
                continue
            shard_health.append(
                health if isinstance(health, dict)
                else {"shard": handle.index, "state": "unknown"}
            )
        with self._migration_lock:
            migrating = len(self._migration)
        return {
            "alive": self.alive(),
            "ready": self.ready(),
            "shards": self.shards,
            "shards_alive": sum(1 for h in self._handles if h.alive),
            "overlay_size": len(self._overlay),
            "layout_epoch": self._layout_epoch,
            "migrating_keys": migrating,
            "rebalance_state": self._rebalance_status.state,
            "submitted": self.metrics.value("router.submitted"),
            "completed": self.metrics.value("router.completed"),
            "failed": self.metrics.value("router.failed"),
            "scatter_products": self.metrics.value("router.scatter_products"),
            "shard_health": shard_health,
        }

    def metrics_snapshot(self) -> dict[str, dict[str, object]]:
        """Router metrics with each shard's counters mirrored in
        (``shard0.server.completed``, ...)."""
        for handle in self._handles:
            if not handle.alive:
                continue
            try:
                snapshot = handle.call({"op": "metrics"}, timeout_s=5.0)
            except PXMLError:
                continue
            if isinstance(snapshot, dict):
                self.metrics.import_snapshot(
                    f"shard{handle.index}",
                    {
                        str(key): value
                        for key, value in snapshot.items()
                        if isinstance(value, dict)
                    },
                )
        return self.metrics.as_dict()

    def shard_directories(self) -> list[Path]:
        """Each shard's catalog directory (for audits and tests)."""
        return [Path(h.config.directory) for h in self._handles]

    def __repr__(self) -> str:
        live = sum(1 for h in self._handles if h.alive)
        return (
            f"ShardedServer({self.name!r}, shards={live}/{self.shards}, "
            f"dir={str(self.directory)!r})"
        )


class _LiveShardAccess:
    """:class:`~repro.server.rebalance.ShardAccess` over live shard
    processes: the copy leg is a journaled ``store`` (with save) on the
    destination's own catalog, the delete leg a ``discard`` on the
    source — each individually crash-consistent in the shard that runs
    it."""

    def __init__(self, server: ShardedServer) -> None:
        self.server = server

    def fetch(self, shard: int, name: str) -> str:
        value = self.server._handles[shard].call(
            {"op": "fetch", "name": name},
            timeout_s=self.server.scatter_timeout_s,
        )
        if not isinstance(value, str):
            raise ServerError(
                f"shard {shard} answered a fetch with {type(value).__name__}"
            )
        return value

    def store(self, shard: int, name: str, payload: str) -> None:
        self.server._handles[shard].call(
            {"op": "store", "name": name, "payload": payload, "save": True},
            timeout_s=self.server.scatter_timeout_s,
        )

    def delete(self, shard: int, name: str) -> None:
        try:
            self.server._handles[shard].call(
                {"op": "discard", "name": name},
                timeout_s=self.server.scatter_timeout_s,
            )
        except DatabaseError:
            pass  # already gone: resume re-runs deletes idempotently
