"""A minimal blocking HTTP/1.1 client and the two load loops.

The client honours whatever ``Connection`` header the server sends: it
reconnects after ``close`` (what the front door answers today) and
reuses the socket otherwise, so a later keep-alive change in the server
needs no edit here.  ``connects`` counts the difference.
"""

from __future__ import annotations

import json
import socket
import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .statements import Stmt

#: Per-request wait bound; a reply slower than this counts as failed.
REQUEST_TIMEOUT_S = 30.0


class Client:
    """One connection's worth of HTTP; not thread-safe (one per thread)."""

    def __init__(self, host: str, port: int) -> None:
        self._address = (host, port)
        self._head = f"Host: {host}:{port}\r\n".encode("latin-1")
        self._sock: socket.socket | None = None
        self.connects = 0

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def request(
        self, method: str, path: str, body: dict | None, timeout_s: float
    ) -> tuple[int, dict]:
        """Send one request; ``(status, decoded JSON body)``.

        Raises ``OSError`` (which ``socket.timeout`` is) on transport
        trouble; the connection is dropped so the next call starts clean.
        """
        payload = b"" if body is None else json.dumps(body).encode("utf-8")
        message = b"".join((
            f"{method} {path} HTTP/1.1\r\n".encode("latin-1"), self._head,
            b"Content-Type: application/json\r\n",
            f"Content-Length: {len(payload)}\r\n\r\n".encode("latin-1"),
            payload,
        ))
        try:
            if self._sock is None:
                self._sock = socket.create_connection(self._address, timeout_s)
                self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self.connects += 1
            self._sock.settimeout(timeout_s)
            self._sock.sendall(message)
            status, keep_alive, data = self._read_response(self._sock)
        except OSError:
            self.close()
            raise
        if not keep_alive:
            self.close()
        return status, json.loads(data) if data else {}

    @staticmethod
    def _read_response(sock: socket.socket) -> tuple[int, bool, bytes]:
        buffer = b""
        while b"\r\n\r\n" not in buffer:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("connection closed before the headers")
            buffer += chunk
        head, _, rest = buffer.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        version, status = lines[0].split()[:2]
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip().lower()
        length = int(headers.get("content-length", "0"))
        while len(rest) < length:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("connection closed inside the body")
            rest += chunk
        connection = headers.get("connection", "")
        keep_alive = (
            connection == "keep-alive" if version == "HTTP/1.0"
            else connection != "close"
        )
        return int(status), keep_alive, rest[:length]

    def execute(self, statement: str) -> tuple[int, dict]:
        """``POST /execute``; transport failures come back as status 0."""
        try:
            return self.request(
                "POST", "/execute", {"statement": statement},
                REQUEST_TIMEOUT_S,
            )
        except (OSError, ValueError) as exc:
            return 0, {"error": {"type": type(exc).__name__,
                                 "message": str(exc)}}


@dataclass
class Sample:
    """One request as the client saw it (times from ``perf_counter``)."""

    stmt: Stmt
    due: float          # open loop: scheduled send time; closed: == sent
    sent: float
    done: float
    status: int
    reply: dict | None  # kept for failures and for replies the oracle checks


class ClientLog:
    """Everything one client thread recorded in one window."""

    def __init__(self, client: Client, verify_every: int) -> None:
        self.samples: list[Sample] = []
        self._client = client
        self._verify_every = verify_every
        self._checkable = 0
        self._connects_before = client.connects
        self.connects = 0

    def send(self, stmt: Stmt, due: float | None = None) -> None:
        """Execute ``stmt`` and record it; every ``verify_every``-th
        reply that has an oracle answer is kept for the check."""
        sent = time.perf_counter()
        status, body = self._client.execute(stmt.text)
        done = time.perf_counter()
        self.connects = self._client.connects - self._connects_before
        reply = None
        if status != 200:
            reply = body
        elif stmt.kind not in ("SAVE", "DROP"):
            self._checkable += 1
            if self._checkable % self._verify_every == 0:
                reply = body
        self.samples.append(Sample(
            stmt, sent if due is None else due, sent, done, status, reply
        ))


def run_closed(
    client: Client, stream: Iterator[Stmt], until: float, verify_every: int
) -> ClientLog:
    """Closed loop: the next request leaves when the previous reply is in."""
    log = ClientLog(client, verify_every)
    while time.perf_counter() < until:
        log.send(next(stream))
    return log


def run_open(
    client: Client, schedule: Sequence[tuple[float, Stmt]], start: float,
    verify_every: int,
) -> ClientLog:
    """Open loop over one thread's arrivals, in order.

    ``schedule`` holds ``(offset from start, statement)``.  A request
    whose predecessor is still running leaves late; its latency is still
    counted from the time it was *due*, so a stall is charged to every
    request it delayed.
    """
    log = ClientLog(client, verify_every)
    for offset, stmt in schedule:
        due = start + offset
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        log.send(stmt, due)
    return log
