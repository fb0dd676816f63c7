"""The asyncio HTTP/JSON front door, driven over real sockets.

A :class:`HttpFrontDoor` over a thread-pool :class:`PXQLServer` backend,
its event loop running on a helper thread, exercised with plain
:mod:`urllib` clients: execute round-trips, typed-error status codes,
health and metrics probes, and the status map itself (unit-level, no
sockets).
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import Future

import pytest

from repro.core.builder import InstanceBuilder
from repro.errors import (
    BudgetExceeded,
    Overloaded,
    ServerError,
    ShardUnavailable,
)
from repro.io.json_codec import dumps
from repro.obs.metrics import MetricsRegistry
from repro.pxql.interpreter import Result
from repro.pxql.lexer import PXQLSyntaxError
from repro.server import HttpFrontDoor, PXQLServer, ShardedServer
from repro.server import http as http_module
from repro.server.http import error_payload
from repro.server.server import wait
from repro.storage.database import Database

STABLE_QUERY = "EXISTS R.book.author IN bib"


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


def _request(port, method, path, payload=None):
    """(status, decoded_json) for one HTTP round-trip."""
    body = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=body,
        headers={"Content-Type": "application/json"} if body else {},
        method=method,
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        with error:  # owns the socket of a non-2xx reply
            return error.code, json.loads(error.read())


class _Door:
    """A front door + backend + loop thread, torn down in order."""

    def __init__(self, backend=None, **front_kwargs):
        if backend is None:
            database = Database()
            database.register("bib", build_bib())
            backend = PXQLServer(database=database, workers=1, queue_size=8).start()
        self.backend = backend
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="http-test-loop", daemon=True
        )
        self.thread.start()
        self.front = HttpFrontDoor(self.backend, port=0, **front_kwargs)
        self._run(self.front.start())
        self.port = self.front.bound_port

    def _run(self, coro, timeout_s=30.0):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(
            timeout_s
        )

    def close(self):
        # Also after a test stopped the backend itself: the listener is
        # the front door's to close.
        self._run(self.front.shutdown(drain_timeout_s=10.0))
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10.0)
        self.loop.close()


@pytest.fixture()
def door():
    harness = _Door()
    yield harness
    harness.close()


class TestExecuteRoute:
    def test_execute_round_trip(self, door):
        status, body = _request(
            door.port, "POST", "/execute", {"statement": STABLE_QUERY}
        )
        assert status == 200
        assert body["result"]["value"] == pytest.approx(0.59)

    def test_parse_error_is_a_typed_400(self, door):
        status, body = _request(
            door.port, "POST", "/execute", {"statement": "FROB the knob"}
        )
        assert status == 400
        assert body["error"]["type"] == "PXQLSyntaxError"
        assert body["error"]["message"]

    def test_missing_statement_is_a_400(self, door):
        status, body = _request(door.port, "POST", "/execute", {})
        assert status == 400
        assert body["error"]["type"] == "BadRequest"

    def test_unknown_path_is_a_404(self, door):
        status, body = _request(door.port, "GET", "/nope")
        assert status == 404
        assert body["error"]["type"] == "NotFound"

    def test_the_rebalance_routes_are_gone(self, door):
        # The shard count changes offline, so there is no live-resize
        # route; /execute is the one route that runs a statement.
        for method, path in (
            ("POST", "/rebalance"), ("GET", "/rebalance/status"),
            ("POST", "/submit"), ("GET", "/result/1"),
        ):
            status, body = _request(door.port, method, path)
            assert status == 404, path
            assert body["error"]["type"] == "NotFound"

    def test_stopped_backend_is_a_503(self, door):
        door.backend.stop(drain=True, timeout_s=10.0)
        status, body = _request(
            door.port, "POST", "/execute", {"statement": STABLE_QUERY}
        )
        assert status == 503
        assert body["error"]["type"] == "Overloaded"
        assert body["error"]["reason"] in ("draining", "stopped")

    @pytest.mark.parametrize("sharded", [False, True], ids=["threads", "shards"])
    @pytest.mark.parametrize("statement", [
        "CHECK EXISTS R.nolabel IN bib",
        "EXPLAIN LINT EXISTS R.nolabel IN bib",
    ])
    def test_a_non_json_value_is_sent_as_its_text(
        self, tmp_path, sharded, statement
    ):
        """Regression: a ``CHECK`` with a finding has a list of
        ``Diagnostic`` objects as its value; the reply used to die in
        ``json.dumps`` and the client got 0 bytes and a closed socket."""
        backend = None
        if sharded:
            backend = ShardedServer(tmp_path, shards=2, workers_per_shard=1)
            backend.start()
            backend.register_instance("bib", dumps(build_bib()))
        harness = _Door(backend=backend)
        client = _Wire(harness.port)
        try:
            status, headers, body = client.exchange(
                "POST", "/execute", {"statement": statement}
            )
            assert status == 200
            assert headers["connection"] == "keep-alive"
            result = body["result"]
            assert "PX240" in result["text"]
            assert result["value"] == result["text"]
        finally:
            client.close()
            harness.close()


class TestProbes:
    def test_health_is_200_when_ready(self, door):
        status, body = _request(door.port, "GET", "/health")
        assert status == 200
        assert body["health"]["ready"] is True

    def test_health_is_503_once_stopped(self, door):
        door.backend.stop(drain=True, timeout_s=10.0)
        status, body = _request(door.port, "GET", "/health")
        assert status == 503
        assert body["health"]["ready"] is False

    def test_metrics_route_exposes_the_registry(self, door):
        _request(door.port, "POST", "/execute", {"statement": STABLE_QUERY})
        status, body = _request(door.port, "GET", "/metrics")
        assert status == 200
        assert "server.submitted" in body["metrics"]

    def test_metrics_route_includes_every_shard_counter(self, tmp_path):
        """Regression: over a sharded backend ``/metrics`` serialised the
        router's registry only, so no ``shardN.*`` key ever appeared."""
        backend = ShardedServer(tmp_path, shards=2, workers_per_shard=1)
        backend.start()
        harness = _Door(backend=backend)
        try:
            name = next(
                f"bib{i}" for i in range(200) if backend.owner(f"bib{i}") == 0
            )
            backend.register_instance(name, dumps(build_bib()))
            status, _body = _request(
                harness.port, "POST", "/execute",
                {"statement": f"EXISTS R.book.author IN {name}"},
            )
            assert status == 200
            status, body = _request(harness.port, "GET", "/metrics")
        finally:
            harness.close()
        assert status == 200
        assert body["metrics"]["router.submitted"]["value"] == 1
        assert body["metrics"]["shard0.server.completed"]["value"] == 1

    def test_metrics_route_reports_each_process_collector(self, door, tmp_path):
        """``process.gc`` is ``gc.get_stats()`` per generation: one
        entry on a single process, and on a sharded backend one for the
        router and one per shard."""

        def assert_collector(entry):
            assert entry["kind"] == "collector"
            assert [sorted(g) for g in entry["generations"]] == [
                ["collected", "collections", "uncollectable"]
            ] * 3

        status, body = _request(door.port, "GET", "/metrics")
        assert status == 200
        assert_collector(body["metrics"]["process.gc"])
        backend = ShardedServer(tmp_path, shards=2, workers_per_shard=1)
        backend.start()
        harness = _Door(backend=backend)
        try:
            status, body = _request(harness.port, "GET", "/metrics")
        finally:
            harness.close()
        assert status == 200
        for name in ("process.gc", "shard0.process.gc", "shard1.process.gc"):
            assert_collector(body["metrics"][name])

    def test_shutdown_drains_and_stops_the_backend(self, door):
        door._run(door.front.shutdown(drain_timeout_s=10.0))
        assert door.backend.state == "stopped"


class TestStatusMap:
    """``error_payload`` unit-level: the full typed-error status map."""

    def test_queue_full_is_429(self):
        status, body = error_payload(
            Overloaded("queue full", reason="queue_full")
        )
        assert (status, body["error"]["reason"]) == (429, "queue_full")

    def test_draining_and_stopped_are_503(self):
        for reason in ("draining", "stopped"):
            status, _ = error_payload(Overloaded("no", reason=reason))
            assert status == 503

    def test_shard_unavailable_is_503_with_shard(self):
        status, body = error_payload(ShardUnavailable("down", shard=1))
        assert status == 503
        assert body["error"]["shard"] == 1

    def test_budget_exceeded_is_408(self):
        status, _ = error_payload(
            BudgetExceeded("too slow", limit="deadline", where="engine")
        )
        assert status == 408

    def test_pxml_errors_are_400(self):
        status, _ = error_payload(PXQLSyntaxError("bad token"))
        assert status == 400

    def test_unrecognized_errors_are_500(self):
        status, body = error_payload(RuntimeError("boom"))
        assert status == 500
        assert body["error"]["type"] == "RuntimeError"


# ----------------------------------------------------------------------
# Persistent connections, over raw sockets
# ----------------------------------------------------------------------
def _message(method, path, payload=None, version="HTTP/1.1", headers=()):
    body = json.dumps(payload).encode("utf-8") if payload is not None else b""
    lines = [f"{method} {path} {version}", "Host: test",
             f"Content-Length: {len(body)}", *headers]
    return "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + body


class _Wire:
    """One client socket, reading replies by their framing only — so a
    byte too many or too few in any reply derails every later one."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), 10.0)
        self.buffer = b""

    def close(self):
        self.sock.close()

    def _fill(self):
        chunk = self.sock.recv(65536)
        if not chunk:
            raise EOFError("server closed the connection")
        self.buffer += chunk

    def reply(self):
        """``(status, headers, decoded body)`` of the next reply."""
        while b"\r\n\r\n" not in self.buffer:
            self._fill()
        head, _, self.buffer = self.buffer.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = {
            name.strip().lower(): value.strip()
            for name, _, value in (line.partition(":") for line in lines)
        }
        length = int(headers["content-length"])
        while len(self.buffer) < length:
            self._fill()
        body, self.buffer = self.buffer[:length], self.buffer[length:]
        return int(status_line.split()[1]), headers, json.loads(body)

    def exchange(self, *args, **kwargs):
        self.sock.sendall(_message(*args, **kwargs))
        return self.reply()

    def at_eof(self):
        """The server closed, having sent nothing beyond the replies read."""
        self.sock.settimeout(10.0)
        return self.buffer == b"" and self.sock.recv(1) == b""


@pytest.fixture()
def wire(door):
    client = _Wire(door.port)
    yield client
    client.close()


def _open_connections(harness):
    """Connections the front door still holds open."""
    async def count():
        await asyncio.sleep(0.05)  # let closed connections unwind
        return len(harness.front._connections)
    return harness._run(count())


def _on_loop(harness, call):
    """``call()``'s value, run on the front door's loop thread."""
    async def run():
        return call()
    return harness._run(run())


class TestPersistentConnections:
    def test_fifty_requests_share_one_connection(self, door, wire):
        for _ in range(50):
            status, headers, body = wire.exchange(
                "POST", "/execute", {"statement": STABLE_QUERY}
            )
            assert status == 200
            assert headers["connection"] == "keep-alive"
            assert body["result"]["value"] == pytest.approx(0.59)
        assert wire.buffer == b""
        metrics = door.backend.metrics
        assert metrics.value("http.connections") == 1
        assert metrics.value("http.requests") == 50

    def test_pipelined_requests_are_answered_in_order(self, wire):
        wire.sock.sendall(
            _message("POST", "/execute", {"statement": STABLE_QUERY})
            + _message("GET", "/nope")
            + _message("POST", "/execute", {"statement": "PROB B1 IN bib"})
        )
        statuses = [wire.reply()[0] for _ in range(3)]
        assert statuses == [200, 404, 200]

    def test_pipelined_hits_are_answered_in_order_without_timers(
        self, door, wire
    ):
        """2,000 pipelined requests for two cached reads, sent at once:
        each comes back resolved from admission and is answered inside
        the framing loop — in order, with no recursion, and with no
        ``timeout_s`` timer armed for any of them."""
        statements = (STABLE_QUERY, "PROB B1 IN bib")
        for statement in statements:  # computed once, then kept
            assert wire.exchange(
                "POST", "/execute", {"statement": statement}
            )[0] == 200
        loop = door.loop
        delays = []
        armed = loop.call_later

        def call_later(delay, *args, **kwargs):
            delays.append(delay)
            return armed(delay, *args, **kwargs)

        _on_loop(door, lambda: setattr(loop, "call_later", call_later))
        try:
            wire.sock.sendall(b"".join(
                _message("POST", "/execute", {"statement": statements[i % 2]})
                for i in range(2000)
            ))
            replies = [wire.reply() for _ in range(2000)]
        finally:
            _on_loop(door, lambda: delattr(loop, "call_later"))
        assert [status for status, _, _ in replies] == [200] * 2000
        values = [body["result"]["value"] for _, _, body in replies]
        assert values == [pytest.approx(0.59), pytest.approx(0.7)] * 1000
        assert set(delays) <= {http_module.IDLE_TIMEOUT_S}
        assert door.backend.metrics.value("pxql.cache.statements.hits") == 2000

    def test_connection_close_is_honoured(self, wire):
        status, headers, _ = wire.exchange(
            "POST", "/execute", {"statement": STABLE_QUERY},
            headers=("Connection: close",),
        )
        assert (status, headers["connection"]) == (200, "close")
        assert wire.at_eof()

    def test_http_1_0_closes_unless_asked_to_keep_alive(self, door):
        plain = _Wire(door.port)
        kept = _Wire(door.port)
        try:
            _, headers, _ = plain.exchange("GET", "/health", version="HTTP/1.0")
            assert headers["connection"] == "close"
            assert plain.at_eof()
            for _ in range(2):
                _, headers, _ = kept.exchange(
                    "GET", "/health", version="HTTP/1.0",
                    headers=("Connection: keep-alive",),
                )
                assert headers["connection"] == "keep-alive"
        finally:
            plain.close()
            kept.close()

    def test_errors_with_known_framing_keep_the_connection(self, wire):
        wire.sock.sendall(
            b"POST /execute HTTP/1.1\r\nContent-Length: 9\r\n\r\n{not json"
        )
        status, headers, body = wire.reply()
        assert (status, body["error"]["type"]) == (400, "BadRequest")
        assert headers["connection"] == "keep-alive"
        status, _, _ = wire.exchange("POST", "/nope", {"ignored": "body"})
        assert status == 404
        status, _, body = wire.exchange(
            "POST", "/execute", {"statement": STABLE_QUERY}
        )
        assert status == 200 and wire.buffer == b""

    @pytest.mark.parametrize("request_bytes", [
        b"POST /execute HTTP/1.1\r\nContent-Length: nine\r\n\r\n{}",
        b"POST /execute HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
        b"GARBAGE\r\n",
        b"POST /execute HTTP/1.1\r\nContent-Length: -5\r\n\r\n{}",
    ])
    def test_unframeable_request_is_a_400_then_close(self, wire, request_bytes):
        wire.sock.sendall(request_bytes)
        status, headers, body = wire.reply()
        assert (status, body["error"]["type"]) == (400, "BadRequest")
        assert headers["connection"] == "close"
        assert wire.at_eof()

    def test_a_head_over_the_bound_is_a_400(self, wire):
        # The server closes with these bytes partly unread, so the
        # client may see a reset rather than EOF after the reply.
        wire.sock.sendall(b"GET /health HTTP/1.1\r\nX-Long: " + b"a" * 70_000)
        status, headers, body = wire.reply()
        assert (status, headers["connection"]) == (400, "close")
        assert "head exceeds" in body["error"]["message"]

    def test_a_head_sent_one_byte_per_send(self, wire):
        wire.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for byte in _message("POST", "/execute", {"statement": STABLE_QUERY}):
            wire.sock.send(bytes([byte]))
        status, headers, body = wire.reply()
        assert (status, headers["connection"]) == (200, "keep-alive")
        assert body["result"]["value"] == pytest.approx(0.59)
        assert wire.exchange("GET", "/health")[0] == 200

    def test_bare_lf_line_endings(self, wire):
        body = json.dumps({"statement": STABLE_QUERY}).encode("utf-8")
        wire.sock.sendall(
            b"POST /execute HTTP/1.1\nHost: test\n"
            b"Content-Length: %d\n\n" % len(body) + body
            + b"GET /health HTTP/1.1\n\n"
        )
        status, headers, body = wire.reply()
        assert (status, headers["connection"]) == (200, "keep-alive")
        assert body["result"]["value"] == pytest.approx(0.59)
        assert wire.reply()[0] == 200 and wire.buffer == b""

    def test_a_half_closed_client_still_gets_its_replies(self, wire):
        wire.sock.sendall(
            _message("POST", "/execute", {"statement": STABLE_QUERY})
            + _message("GET", "/health")
        )
        wire.sock.shutdown(socket.SHUT_WR)
        assert [wire.reply()[0] for _ in range(2)] == [200, 200]
        assert wire.at_eof()

    def test_a_client_that_does_not_read_is_answered_in_order(self, door, wire):
        """200 pipelined requests while the transport has paused writing
        (as it does for a client that is not reading): nothing is
        answered and reading stops past the bound; once writing resumes,
        every reply arrives, in order."""
        assert _open_connections(door) == 1
        (connection,) = door.front._connections
        statements = ("EXISTS R.book.author IN bib", "PROB B1 IN bib")
        flood = b"".join(
            _message("POST", "/execute", {
                "statement": statements[i % 2], "pad": "x" * 12_000,
            })
            for i in range(200)
        )
        assert len(flood) > 2 * http_module._READ_LIMIT  # what is not read
        _on_loop(door, connection.pause_writing)
        sender = threading.Thread(target=wire.sock.sendall, args=(flood,))
        sender.start()
        try:
            deadline = time.monotonic() + 30.0
            while _on_loop(door, connection.transport.is_reading):
                assert time.monotonic() < deadline, "reading never stopped"
                time.sleep(0.01)
            time.sleep(0.1)
            buffered = _on_loop(door, lambda: len(connection.buffer))
            assert http_module._READ_LIMIT < buffered
            assert buffered <= http_module._READ_LIMIT + 256 * 1024  # one read
            assert door.backend.metrics.value("http.requests") == 0
            _on_loop(door, connection.resume_writing)
            values = [wire.reply()[2]["result"]["value"] for _ in range(200)]
        finally:
            sender.join(30.0)
        assert not sender.is_alive()
        assert values == [pytest.approx(0.59), pytest.approx(0.7)] * 100
        assert door.backend.metrics.value("http.requests") == 200

    def test_disconnects_leave_no_task_behind(self, door):
        silent = _Wire(door.port)          # connects, never sends
        partial = _Wire(door.port)         # dies inside the body
        partial.sock.sendall(
            b"POST /execute HTTP/1.1\r\nContent-Length: 50\r\n\r\n{"
        )
        assert _open_connections(door) == 2
        silent.close()
        partial.close()
        assert _open_connections(door) == 0

    def test_idle_connection_is_closed_after_the_bound(self, monkeypatch):
        monkeypatch.setattr(http_module, "IDLE_TIMEOUT_S", 0.5)
        harness = _Door()
        client = _Wire(harness.port)
        try:
            status, _, _ = client.exchange("GET", "/health")
            assert status == 200
            assert _open_connections(harness) == 1  # inside the bound
            assert client.at_eof()         # silently, after the bound
            assert _open_connections(harness) == 0
        finally:
            client.close()
            harness.close()

    def test_shutdown_closes_idle_connections(self):
        harness = _Door()
        idle = _Wire(harness.port)
        try:
            assert idle.exchange("GET", "/health")[0] == 200
            started = time.monotonic()
            harness._run(harness.front.shutdown(drain_timeout_s=10.0))
            assert time.monotonic() - started < 1.0
            assert idle.at_eof()
        finally:
            idle.close()
            harness.close()

    def test_draining_front_door_answers_close(self, door, wire):
        assert wire.exchange("GET", "/health")[1]["connection"] == "keep-alive"
        door.front._draining = True
        status, headers, body = wire.exchange(
            "POST", "/execute", {"statement": STABLE_QUERY}
        )
        assert (status, body["error"]["reason"]) == (503, "draining")
        assert headers["connection"] == "close"
        assert wire.at_eof()
        door.front._draining = False

    def test_execute_timeout_is_the_same_typed_error(self):
        backend = _StuckBackend()
        harness = _Door(backend=backend, execute_timeout_s=0.05)
        client = _Wire(harness.port)
        try:
            with pytest.raises(ServerError) as waited:
                wait(Future(), 0.05)
            # ``true`` is no number of seconds: it gets the default
            # (0.05 s here), not a 1 s deadline.
            for timeout_s in (0.05, True):
                status, headers, body = client.exchange(
                    "POST", "/execute",
                    {"statement": STABLE_QUERY, "timeout_s": timeout_s},
                )
                assert status == 400
                assert body["error"] == {
                    "type": "ServerError", "message": str(waited.value),
                }
                assert headers["connection"] == "keep-alive"
            # The late completion is dropped; the connection serves on,
            # and a resolved request is answered without a parked thread.
            backend.admitted[0].set_result(Result(1.0, None, "late"))
            threading.Timer(
                0.05, lambda: backend.admitted[2].set_result(
                    Result(0.25, None, "in time")
                )
            ).start()
            status, _, body = client.exchange(
                "POST", "/execute", {"statement": STABLE_QUERY,
                                     "timeout_s": 30.0}
            )
            assert (status, body["result"]["text"]) == (200, "in time")
        finally:
            client.close()
            harness.close()


class _StuckBackend:
    """Admits everything and resolves nothing: the test does."""

    def __init__(self):
        self.metrics = MetricsRegistry()
        self.admitted = []

    def submit(self, text):
        self.admitted.append(Future())
        return self.admitted[-1]

    def drain(self, timeout_s=30.0):
        return True

    def stop(self, drain=True, timeout_s=30.0):
        return True
