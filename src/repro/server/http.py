"""An asyncio HTTP/JSON front door for PXQL serving (stdlib only).

:class:`HttpFrontDoor` puts a small, dependency-free HTTP/1.1 endpoint
in front of any backend satisfying :class:`Backend` — the thread-pool
:class:`~repro.server.server.PXQLServer` and the multi-process
:class:`~repro.server.shard.ShardedServer` both do:

====================  ==================================================
route                 behavior
====================  ==================================================
``POST /execute``     ``{"statement": ..., "timeout_s"?: ...}`` —
                      run one statement; 200 with the result, or a typed
                      JSON error (see the status map below)
``GET /health``       the backend's health snapshot; 200 when ready,
                      503 otherwise (a load-balancer-friendly probe)
``GET /metrics``      the metrics registry as JSON, plus ``process.gc``:
                      each process's cyclic-collector totals
====================  ==================================================

**Typed error translation.**  Bodies are the descriptions of
:mod:`repro.server.wire` — the ones the shard pipe carries:
``{"result": describe_result(...)}`` (a value that is not JSON all the
way down is sent as the statement's text) or
``{"error": describe_error(...)}``, with meaningful status codes:
``Overloaded(queue_full)`` → 429, ``Overloaded(draining/stopped)``
and ``ShardUnavailable`` → 503, ``BudgetExceeded`` → 408, any other
:class:`~repro.errors.PXMLError` (parse errors, check failures, unknown
instances) → 400, anything unrecognized → 500.  Clients always see JSON, never a traceback.

**Shutdown.**  :meth:`HttpFrontDoor.install_signal_handlers` arranges
drain-then-stop on ``SIGTERM``/``SIGINT``: admissions stop (503s),
shards drain, the listener closes, :meth:`serve_forever` returns.

**Connections.**  A connection is one :class:`asyncio.Protocol` that
buffers the bytes it receives and answers its requests one at a time,
in order: HTTP/1.1 is persistent unless the request says
``Connection: close``, HTTP/1.0 only when it says ``keep-alive``, and
every reply states which it was.  The server closes after a request it
cannot frame (a 400 first), after a last-resort 500, once it is
draining, and after :data:`IDLE_TIMEOUT_S` without a complete request;
:meth:`HttpFrontDoor.shutdown` closes the connections that are waiting
for one.  While the transport has paused writing no request is framed,
and past :data:`_READ_LIMIT` buffered bytes the connection stops reading.

``/execute`` is answered where it is framed when the backend's future
comes back already resolved (a statement-tier hit, answered at
admission by a ``PXQLServer`` or by the sharded router): the reply is
written inside the framing loop, with no timer and no thread hand-off,
so a pipelined run of hits is answered in one pass.  Otherwise it is
answered from the future's done callback or by a ``timeout_s`` timer,
whichever fires first — no task, loop future or thread per request.
The other routes run as one task per request; what blocks
(``/health``, a sharded ``/metrics``, drain and stop) runs in the
loop's default executor, so the loop itself never stalls.
"""

from __future__ import annotations

import asyncio
import json
import signal
from concurrent.futures import Future
from typing import NamedTuple, Protocol, cast

from repro.errors import (
    BudgetExceeded,
    Overloaded,
    PXMLError,
    ServerError,
    ShardUnavailable,
)
from repro.obs.metrics import MetricsRegistry
from repro.pxql.interpreter import Result
from repro.server.server import timed_out
from repro.server.wire import describe_error, describe_result

#: Largest accepted request body (bytes); statements are small.
MAX_BODY_BYTES = 1 << 20

#: Largest accepted request head: request line plus headers (bytes).
MAX_HEAD_BYTES = 1 << 16

#: Buffered request bytes past which a connection stops reading.
_READ_LIMIT = MAX_BODY_BYTES + MAX_HEAD_BYTES

#: Default wait bound for ``POST /execute`` (seconds).
DEFAULT_EXECUTE_TIMEOUT_S = 60.0

#: How long a connection may sit without a complete request (seconds).
IDLE_TIMEOUT_S = 30.0

_REASONS = {200: "OK", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            408: "Request Timeout",
            429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable"}


class Backend(Protocol):
    """What the front door needs from a serving backend."""

    metrics: MetricsRegistry

    def submit(self, text: str) -> Future[Result]: ...

    def health(self) -> dict[str, object]: ...

    def metrics_snapshot(self) -> dict[str, dict[str, object]]: ...

    def alive(self) -> bool: ...

    def ready(self) -> bool: ...

    def drain(self, timeout_s: float = 30.0) -> bool: ...

    def stop(self, drain: bool = True, timeout_s: float = 30.0) -> bool: ...


def error_payload(exc: BaseException) -> tuple[int, dict[str, object]]:
    """``(http_status, json_body)`` for an execution/admission error."""
    if isinstance(exc, Overloaded):
        status = 429 if exc.reason == "queue_full" else 503
    elif isinstance(exc, ShardUnavailable):
        status = 503
    elif isinstance(exc, BudgetExceeded):
        status = 408
    elif isinstance(exc, PXMLError):
        status = 400
    else:
        status = 500
    return status, {"error": describe_error(exc)}


def _resolved_payload(future: Future[Result]) -> tuple[int, dict[str, object]]:
    """The reply for a request its backend has resolved."""
    error = future.exception()
    if error is not None:
        return error_payload(error)
    value: object = future.result()
    if not isinstance(value, Result):
        return error_payload(
            ServerError(
                "backend resolved the request with a non-Result "
                f"{type(value).__name__!r}"
            )
        )
    return 200, {"result": describe_result(value)}


class _Request(NamedTuple):
    """One framed HTTP request."""

    method: str
    path: str
    body: bytes
    keep_alive: bool  # the client allows another request

    def json(self) -> dict[str, object]:
        if not self.body:
            return {}
        data = json.loads(self.body.decode("utf-8"))
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data


def _frame(buffer: bytearray) -> tuple[_Request, int] | None:
    """The first request in ``buffer`` and how many bytes it spans, or
    ``None`` while it is incomplete; ``ValueError`` when the bytes
    cannot be framed as one.  A line may end in ``\\r\\n`` or ``\\n``."""
    newline = buffer.find(b"\n")  # a bad request line fails at once
    if newline >= 0 and len(buffer[:newline].split()) < 2:
        raise ValueError("malformed request line")
    end = buffer.find(b"\n\r\n")
    bare = buffer.find(b"\n\n", 0, end + 2 if end >= 0 else len(buffer))
    end, start = (bare, bare + 2) if bare >= 0 else (end, end + 3)
    if (end if end >= 0 else len(buffer)) > MAX_HEAD_BYTES:
        raise ValueError(f"request head exceeds {MAX_HEAD_BYTES} bytes")
    if end < 0:
        return None
    request_line, *lines = buffer[:end].decode("latin-1").split("\n")
    parts = request_line.split()
    content_length = 0
    connection = ""
    for line in lines:
        name, _, value = line.partition(":")
        name = name.strip().lower()
        if name == "content-length":
            if not value.strip().isdigit():
                raise ValueError("bad Content-Length header")
            content_length = int(value)
        elif name == "connection":
            connection = value.strip().lower()
    if content_length > MAX_BODY_BYTES:
        raise ValueError(f"body exceeds {MAX_BODY_BYTES} bytes")
    size = start + content_length
    if len(buffer) < size:
        return None
    version = parts[2].upper() if len(parts) > 2 else ""
    keep_alive = (
        "close" not in connection if version == "HTTP/1.1"
        else version == "HTTP/1.0" and "keep-alive" in connection
    )
    return _Request(parts[0].upper(), parts[1], bytes(buffer[start:size]), keep_alive), size


def _failed(exc: Exception, keep_alive: bool) -> tuple[int, dict[str, object], bool]:
    """``(status, body, keep_alive)`` for a request that raised ``exc``:
    a 400 for one the client worded wrongly, else a last-resort 500,
    which closes the connection."""
    if isinstance(exc, ValueError):  # UnicodeDecodeError and JSON too
        return 400, {"error": {"type": "BadRequest", "message": str(exc)}}, keep_alive
    return 500, {"error": describe_error(exc)}, False


class _Connection(asyncio.Protocol):
    """One client connection: frames its requests from the bytes
    received and answers them one at a time, in order (see
    **Connections** in the module docstring)."""

    transport: asyncio.Transport  # set by connection_made

    def __init__(self, door: HttpFrontDoor) -> None:
        self.door = door
        self.loop = asyncio.get_running_loop()
        self.buffer = bytearray()
        self.busy = False  # a framed request is not answered yet
        self.paused = False  # the transport asked us to stop writing
        self.eof = False  # the client sends nothing more
        self.idle: asyncio.TimerHandle | None = None
        self.task: asyncio.Task[None] | None = None  # a route coroutine

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = cast(asyncio.Transport, transport)
        self.door._connections.add(self)
        self.door.backend.metrics.counter("http.connections").inc()
        self._next()

    def connection_lost(self, exc: Exception | None) -> None:
        self.door._connections.discard(self)
        if self.idle is not None:
            self.idle.cancel()

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        if len(self.buffer) > _READ_LIMIT:
            self.transport.pause_reading()
        self._next()

    def eof_received(self) -> bool:
        self.eof = True
        self._next()
        return True  # the transport stays open for the replies owed

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        self._next()

    def _next(self) -> None:
        """Answer buffered requests while free, then wait for one (at most
        :data:`IDLE_TIMEOUT_S`); a reply sent outside this loop re-enters it."""
        transport = self.transport
        while not (self.busy or self.paused or transport.is_closing()):
            try:
                framed = _frame(self.buffer)
            except ValueError as exc:
                self.busy = True
                self.reply(*_failed(exc, False))
                return
            if framed is None:
                if self.eof:
                    transport.close()
                elif self.idle is None:  # connection_lost cancels it
                    self.idle = self.loop.call_later(
                        IDLE_TIMEOUT_S, transport.close
                    )
                return
            request, size = framed
            del self.buffer[:size]
            if not transport.is_reading() and len(self.buffer) <= _READ_LIMIT:
                transport.resume_reading()
            if self.idle is not None:
                self.idle.cancel()
                self.idle = None
            self.busy = True
            self.door._serve(self, request)

    def reply(
        self, status: int, body: dict[str, object], keep_alive: bool
    ) -> None:
        """Write the reply, then free the connection for its next request or close it."""
        self.door.backend.metrics.counter("http.requests").inc()
        keep_alive = keep_alive and not self.door._draining
        payload = json.dumps(body).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        transport = self.transport
        if transport.is_closing():
            return  # the client went away while it was being answered
        transport.write(head.encode("latin-1") + payload)
        self.busy = False
        if not keep_alive:
            transport.close()


class HttpFrontDoor:
    """Serve a PXQL backend over HTTP/JSON on an asyncio event loop.

    Args:
        backend: the serving backend (thread server or sharded router).
        host: bind address.
        port: bind port (0 = ephemeral; see :attr:`bound_port`).
        execute_timeout_s: default wait bound for ``POST /execute``.
    """

    def __init__(
        self,
        backend: Backend,
        host: str = "127.0.0.1",
        port: int = 8080,
        execute_timeout_s: float = DEFAULT_EXECUTE_TIMEOUT_S,
    ) -> None:
        self.backend = backend
        self.host = host
        self.port = port
        self.execute_timeout_s = execute_timeout_s
        self._server: asyncio.AbstractServer | None = None
        self._shutdown: asyncio.Event | None = None
        self._draining = False
        #: Open connections: :meth:`shutdown` closes those not busy.
        self._connections: set[_Connection] = set()

    @property
    def bound_port(self) -> int:
        """The actual listening port (after :meth:`start`)."""
        server = self._server
        if server is None or not server.sockets:
            return self.port
        port = server.sockets[0].getsockname()[1]
        return int(port)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "HttpFrontDoor":
        """Bind the listener (idempotent-hostile: call once)."""
        if self._server is not None:
            raise ServerError("front door already started")
        self._shutdown = asyncio.Event()
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port
        )
        return self

    async def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` (or a handled signal) fires."""
        if self._server is None or self._shutdown is None:
            raise ServerError("front door not started (call start())")
        await self._shutdown.wait()

    async def shutdown(self, drain_timeout_s: float = 30.0) -> None:
        """Drain the backend, stop it, close the listener."""
        self._draining = True
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, lambda: self.backend.drain(drain_timeout_s)
        )
        await loop.run_in_executor(
            None, lambda: self.backend.stop(False, drain_timeout_s)
        )
        server = self._server
        if server is not None:
            server.close()
            # Every admitted request has its reply; close what waits for
            # a request (3.12's wait_closed waits for every connection),
            # once a connection accepted just now has been made.
            await asyncio.sleep(0)
            for connection in list(self._connections):
                if not connection.busy:
                    connection.transport.close()
            await server.wait_closed()
        if self._shutdown is not None:
            self._shutdown.set()

    def install_signal_handlers(self) -> None:
        """Drain-then-stop on SIGTERM/SIGINT (main-thread loops only)."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                signum,
                lambda: asyncio.ensure_future(self.shutdown()),
            )

    # ------------------------------------------------------------------
    # Answering a framed request
    # ------------------------------------------------------------------
    def _serve(self, connection: _Connection, request: _Request) -> None:
        """Answer ``/execute`` at once or by completion callback, other
        routes as a task."""
        try:
            if request.path == "/execute" and request.method == "POST":
                self._execute(connection, request)
            else:
                connection.task = connection.loop.create_task(
                    self._answer(connection, request)
                )
        except Exception as exc:  # noqa: BLE001 - last-resort JSON 500
            connection.reply(*_failed(exc, request.keep_alive))

    async def _answer(self, connection: _Connection, request: _Request) -> None:
        try:
            status, body = await self._dispatch(request)
            keep_alive = request.keep_alive
        except Exception as exc:  # noqa: BLE001 - last-resort JSON 500
            status, body, keep_alive = _failed(exc, request.keep_alive)
        connection.reply(status, body, keep_alive)
        connection._next()

    def _execute(self, connection: _Connection, request: _Request) -> None:
        """Admit the statement; reply on its completion or its timeout."""
        statement, timeout_s = self._statement_of(request)
        keep_alive = request.keep_alive
        try:
            if self._draining:
                raise Overloaded("front door is draining", reason="draining")
            pending = self.backend.submit(statement)
        except Exception as exc:  # noqa: BLE001 - typed JSON transport
            connection.reply(*error_payload(exc), keep_alive)
            return
        if pending.done():  # answered at admission: _next's loop goes on
            connection.reply(*_resolved_payload(pending), keep_alive)
            return

        def settle(resolved: bool) -> None:
            # Cancelling the timer (fired or not) marks the reply written.
            if timer.cancelled():
                return  # the other of reply and timer came first
            timer.cancel()
            keep = keep_alive
            try:
                status, body = (
                    _resolved_payload(pending) if resolved
                    else error_payload(timed_out(timeout_s))
                )
            except Exception as exc:  # noqa: BLE001 - last-resort JSON 500
                status, body, keep = _failed(exc, keep_alive)
            connection.reply(status, body, keep)
            connection._next()

        loop = connection.loop
        timer = loop.call_later(timeout_s, settle, False)
        # The callback runs on the resolving thread: it only hands
        # completion to the loop.
        pending.add_done_callback(
            lambda _resolved: loop.call_soon_threadsafe(settle, True)
        )

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    async def _dispatch(
        self, request: _Request
    ) -> tuple[int, dict[str, object]]:
        if request.path == "/health" and request.method == "GET":
            return await self._route_health()
        if request.path == "/metrics" and request.method == "GET":
            return await self._route_metrics()
        return 404, {
            "error": {"type": "NotFound", "message": request.path}
        }

    def _statement_of(self, request: _Request) -> tuple[str, float]:
        data = request.json()
        statement = data.get("statement")
        if not isinstance(statement, str) or not statement.strip():
            raise ValueError('missing "statement" string')
        timeout = data.get("timeout_s")
        timeout_s = (
            float(timeout)
            if isinstance(timeout, (int, float))
            and not isinstance(timeout, bool)  # JSON true is not a number
            and timeout > 0
            else self.execute_timeout_s
        )
        return statement, timeout_s

    async def _route_health(self) -> tuple[int, dict[str, object]]:
        loop = asyncio.get_running_loop()
        health = await loop.run_in_executor(None, self.backend.health)
        ready = bool(health.get("ready")) and not self._draining
        return (200 if ready else 503), {"health": health}

    async def _route_metrics(self) -> tuple[int, dict[str, object]]:
        # A sharded backend mirrors every shard's counters in with one
        # blocking pipe call per shard: keep that off the loop.
        loop = asyncio.get_running_loop()
        metrics = await loop.run_in_executor(None, self.backend.metrics_snapshot)
        return 200, {"metrics": metrics}
