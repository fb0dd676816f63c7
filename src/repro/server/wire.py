"""Everything that crosses a process or socket boundary.

* :class:`ShardConfig` — the picklable recipe one shard process is
  built from; ``_shard_main`` / :class:`_ShardRuntime` — the shard
  process: a ``PXQLServer`` thread pool over a shard-local
  :class:`Database` directory, driven by a duplex-pipe RPC loop
  (execute / fetch / store / names / health / metrics / drain /
  stop);
* :class:`_ShardHandle` — the router's end of one pipe.  It sends
  ``{"id", "op", ...}`` and rebuilds each reply once, on arrival: its
  future resolves with the value (a ``Result`` for ``execute``) or the
  typed error, so no caller parses a reply;
* :func:`describe_error` / :func:`rebuild_error` and
  :func:`describe_result` / :func:`rebuild_result` — the one
  description of a reply.  HTTP sends the descriptions as its JSON
  bodies; the pipe carries them from a shard to the router.

**The reply rule.**  An exception crosses by description (type name,
message, the attributes in :data:`_ATTRIBUTES` and the finding codes of
a failed check), never as a pickled live object; the router rebuilds the
types in :data:`_REBUILT` as themselves and everything else as a typed
:class:`~repro.errors.RemoteExecutionError`.  A result's value crosses
as itself when it is JSON all the way down and as the statement's text
otherwise (an instance, a ``PROFILE`` span tree, a ``CHECK`` list of
diagnostics): one deep check, before the reply leaves, on both wires.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
from collections.abc import Callable
from concurrent.futures import Future
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import cast

from repro.check.diagnostics import CheckError, errors_of
from repro.errors import (
    BudgetExceeded,
    FaultError,
    LockTimeout,
    Overloaded,
    PXMLError,
    RemoteExecutionError,
    ServerError,
    ShardUnavailable,
)
from repro.pxql.interpreter import Result
from repro.resilience.budget import Budget
from repro.resilience.faults import FaultInjector, FaultSpec
from repro.server.server import PXQLServer, _WorkerInterpreter, new_future, wait
from repro.storage.database import Database, DatabaseError

#: Errors rebuilt as themselves from their description.
_REBUILT: dict[str, type[PXMLError]] = {
    cls.__name__: cls
    for cls in (
        BudgetExceeded, DatabaseError, FaultError, LockTimeout, Overloaded,
        RemoteExecutionError, ServerError, ShardUnavailable,
    )
}

#: The structured attributes a description carries beside type and message.
_ATTRIBUTES = ("reason", "limit", "where", "shard", "remote_type")


def describe_error(exc: BaseException) -> dict[str, object]:
    """The JSON description of an error (an HTTP error body, a pipe reply)."""
    description: dict[str, object] = {"type": type(exc).__name__, "message": str(exc)}
    for attr in _ATTRIBUTES:
        value = getattr(exc, attr, None)
        if isinstance(value, (str, int)) and value != "":
            description[attr] = value
    if isinstance(exc, CheckError):
        codes = [d.code for d in errors_of(exc.diagnostics)]
    else:
        codes = list(exc.codes) if isinstance(exc, RemoteExecutionError) else []
    if codes:
        description["codes"] = codes
    return description


def rebuild_error(description: dict[str, object], shard: int) -> PXMLError:
    """The typed exception shard ``shard``'s error description stands for."""
    type_name = str(description["type"])
    message = str(description["message"])
    known = _REBUILT.get(type_name)
    error = known(message) if known is not None else RemoteExecutionError(
        f"shard {shard} raised {type_name}: {message}", remote_type=type_name
    )
    for attr in (*_ATTRIBUTES, "codes"):
        if attr in description and hasattr(error, attr):
            value = description[attr]
            setattr(error, attr, tuple(value) if isinstance(value, list) else value)
    return error


def _is_json(value: object) -> bool:
    """Whether ``json.dumps`` writes ``value`` as itself, all the way down."""
    if value is None or isinstance(value, (str, int, float)):
        return True
    if isinstance(value, list):
        return all(_is_json(item) for item in value)
    if isinstance(value, dict):
        return all(
            (key is None or isinstance(key, (str, int, float))) and _is_json(item)
            for key, item in value.items()
        )
    return False


def describe_result(result: Result) -> dict[str, object]:
    """The JSON description of a statement's outcome; a value that is
    not JSON all the way down is replaced by the statement's text."""
    return {
        "value": result.value if _is_json(result.value) else result.text,
        "instance_name": result.instance_name,
        "text": result.text,
    }


def rebuild_result(description: dict[str, object]) -> Result:
    """The :class:`Result` a description stands for."""
    name, text = description["instance_name"], str(description["text"])
    return Result(description["value"], name if isinstance(name, str) else None, text)


@dataclass(frozen=True)
class ShardConfig:
    """The picklable recipe one shard process is built from.

    Attributes:
        index: the shard's position in the ring (stable across restarts).
        directory: the shard-local catalog directory.
        workers: worker-thread count of the shard's ``PXQLServer``.
        queue_size: the shard's admission-queue bound.
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
    default_deadline_s: float | None = None
    fault_specs: tuple[FaultSpec, ...] = ()
    fault_seed: int = 0


# ----------------------------------------------------------------------
# Shard process
# ----------------------------------------------------------------------
def _pickled(message: dict[str, object]) -> bytes:
    """One pipe message as the bytes ``Connection.recv`` unpickles.

    ``Connection.send`` would pickle into a buffer and send a view of
    it; a view caught in a garbage cycle makes the collector report
    ``BufferError: Existing exports of data``.  Plain bytes export
    nothing.
    """
    return pickle.dumps(message, pickle.HIGHEST_PROTOCOL)


class _ShardRuntime:
    """The serving loop living inside one shard process."""

    def __init__(self, config: ShardConfig, conn: Connection) -> None:
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
            interpreter_factory=self._interpreter,
            name=f"shard{config.index}",
        )
        self._send_lock = threading.Lock()

    def _interpreter(self, worker: int) -> _WorkerInterpreter:
        """A pool worker's interpreter: its fresh names carry the shard
        index too, so two shards' unnamed results never share a name."""
        server = self.server
        return _WorkerInterpreter(
            f"_s{self.config.index}_w{worker}", database=self.database,
            tracer=server.tracer, metrics=server.metrics,
        )

    def _send(self, reply: dict[str, object]) -> None:
        payload = _pickled(reply)
        try:
            with self._send_lock:
                self.conn.send_bytes(payload)
        except (OSError, EOFError):
            pass  # router is gone; the shard loop will see EOF and exit

    def _fail(self, ident: object, exc: BaseException) -> None:
        self._send({"id": ident, "error": describe_error(exc)})

    def _on_execute(self, ident: object, message: dict[str, object]) -> None:
        deadline = message["deadline_s"]
        budget = None if deadline is None else Budget(deadline_s=cast(float, deadline))
        try:
            future = self.server.submit(str(message["text"]), budget=budget)
        except Exception as exc:  # noqa: BLE001 - transported, typed
            self._fail(ident, exc)
            return

        def _resolved(done: Future[Result]) -> None:
            error = done.exception()
            if error is not None:
                self._fail(ident, error)
                return
            self._send({"id": ident, "result": describe_result(done.result())})

        future.add_done_callback(_resolved)

    def _handle(self, message: dict[str, object]) -> bool:
        """Dispatch one request; returns whether to keep serving."""
        ident, op = message["id"], message["op"]
        if op == "execute":
            self._on_execute(ident, message)
            return True
        try:
            self._send({"id": ident, "value": self._call(op, message)})
        except Exception as exc:  # noqa: BLE001 - transported, typed
            self._fail(ident, exc)
        return op != "stop"

    def _call(self, op: object, message: dict[str, object]) -> object:
        from repro.io.json_codec import dumps, loads

        timeout = message.get("timeout_s")
        timeout_s = float(timeout) if isinstance(timeout, (int, float)) else 30.0
        if op == "fetch":
            return dumps(self.database.get(str(message["name"])))
        if op == "store":
            name = str(message["name"])
            instance = loads(str(message["payload"]))
            self.database.register(name, instance, replace=True)
            if message.get("save", False):
                self.database.save(name)
            return name
        if op == "names":
            return self.database.names()
        if op == "health":
            health = self.server.health()
            health["shard"] = self.config.index
            health["generation"] = self.database.generation()
            return health
        if op == "metrics":
            return self.server.metrics_snapshot()
        if op == "drain":
            return self.server.drain(timeout_s)
        if op == "stop":
            return self.server.stop(
                drain=bool(message.get("drain", True)), timeout_s=timeout_s
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
    runtime = _ShardRuntime(config, conn)
    if config.fault_specs:
        # Installed in the shard's main thread: submissions snapshot the
        # ambient context, so every worker replays the injector.
        with FaultInjector(*config.fault_specs,
                           seed=config.fault_seed + config.index):
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
        self._pending: dict[int, Future[object]] = {}
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
        return not self._dead and process is not None and process.is_alive()

    def _read_loop(self) -> None:
        conn = self._conn
        assert conn is not None
        while True:
            try:
                reply = conn.recv()
            except (EOFError, OSError):
                break
            with self._pending_lock:
                pending = self._pending.pop(reply["id"], None)
            if pending is None:
                continue
            if "error" in reply:
                pending.set_exception(rebuild_error(reply["error"], self.index))
            elif "result" in reply:
                pending.set_result(rebuild_result(reply["result"]))
            else:
                pending.set_result(reply["value"])
        # The shard is gone: answer everything still in flight.
        with self._pending_lock:
            self._dead = True
            orphaned = list(self._pending.values())
            self._pending.clear()
        for pending in orphaned:
            pending.set_exception(
                ShardUnavailable(
                    f"shard {self.index} died with the request in flight",
                    shard=self.index,
                )
            )

    def request(self, op: str, **args: object) -> Future[object]:
        """Send one RPC; the future resolves with the rebuilt reply — the
        value (a ``Result`` for ``execute``) or the typed error.

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
            future: Future[object] = new_future()
            self._pending[ident] = future
        conn = self._conn
        assert conn is not None
        try:
            payload = _pickled({"id": ident, "op": op, **args})
            with self._send_lock:
                conn.send_bytes(payload)
        except (OSError, ValueError, EOFError) as exc:
            with self._pending_lock:
                self._pending.pop(ident, None)
            raise ShardUnavailable(
                f"shard {self.index} is unreachable: {exc}", shard=self.index
            ) from exc
        return future

    def call(self, op: str, wait_s: float = 30.0, **args: object) -> object:
        """Synchronous :meth:`request`: the value, or raises the typed error."""
        return wait(self.request(op, **args), wait_s)

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
