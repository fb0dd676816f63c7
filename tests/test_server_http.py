"""The asyncio HTTP/JSON front door, driven over real sockets.

A :class:`HttpFrontDoor` over a thread-pool :class:`PXQLServer` backend,
its event loop running on a helper thread, exercised with plain
:mod:`urllib` clients: execute round-trips, typed-error status codes,
the submit/poll/pickup lifecycle (one-shot delivery), health and
metrics probes, and the status map itself (unit-level, no sockets).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.builder import InstanceBuilder
from repro.errors import (
    BudgetExceeded,
    Overloaded,
    ShardUnavailable,
)
from repro.io.json_codec import dumps
from repro.pxql.lexer import PXQLSyntaxError
from repro.server import HttpFrontDoor, PXQLServer, ShardedServer
from repro.server.http import error_payload
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
        return error.code, json.loads(error.read())


class _Door:
    """A front door + backend + loop thread, torn down in order."""

    def __init__(self, backend=None, **front_kwargs):
        if backend is None:
            database = Database()
            database.register("bib", build_bib())
            backend = PXQLServer(
                database=database, workers=1, queue_size=8, poll_s=0.005
            ).start()
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
        if getattr(self.backend, "state", None) != "stopped":
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

    def test_stopped_backend_is_a_503(self, door):
        door.backend.stop(drain=True, timeout_s=10.0)
        status, body = _request(
            door.port, "POST", "/execute", {"statement": STABLE_QUERY}
        )
        assert status == 503
        assert body["error"]["type"] == "Overloaded"
        assert body["error"]["reason"] in ("draining", "stopped")


class TestSubmitResultRoutes:
    def test_submit_poll_pickup_lifecycle(self, door):
        status, body = _request(
            door.port, "POST", "/submit", {"statement": STABLE_QUERY}
        )
        assert status == 202
        ident = body["id"]

        deadline = time.monotonic() + 30.0
        while True:
            status, body = _request(door.port, "GET", f"/result/{ident}")
            if status == 200:
                break
            assert status == 202, body
            assert time.monotonic() < deadline, "result never arrived"
            time.sleep(0.01)
        assert body["result"]["value"] == pytest.approx(0.59)

        # Delivery is one-shot: the slot is freed on pickup.
        status, body = _request(door.port, "GET", f"/result/{ident}")
        assert status == 404

    def test_unknown_result_id_is_a_404(self, door):
        status, body = _request(door.port, "GET", "/result/99999")
        assert status == 404
        assert body["error"]["type"] == "NotFound"

    def test_submitted_error_is_typed_on_pickup(self, door):
        status, body = _request(
            door.port, "POST", "/submit",
            {"statement": "EXISTS R.x IN no_such_instance"},
        )
        assert status == 202
        ident = body["id"]
        deadline = time.monotonic() + 30.0
        while True:
            status, body = _request(door.port, "GET", f"/result/{ident}")
            if status != 202:
                break
            assert time.monotonic() < deadline, "error never arrived"
            time.sleep(0.01)
        assert status == 400
        assert body["error"]["type"]


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


class TestResultRetention:
    """The pending-result TTL sweep, 410 Gone, and the hard bound."""

    def _submit(self, port):
        status, body = _request(
            port, "POST", "/submit", {"statement": STABLE_QUERY}
        )
        assert status == 202
        return body["id"]

    def test_expired_result_is_410_and_counted(self):
        harness = _Door(result_ttl_s=0.05)
        try:
            ident = self._submit(harness.port)
            # Either the manual sweep or the background sweeper may win
            # the race to expire the slot; wait on the counter, which
            # both paths increment.
            deadline = time.monotonic() + 10.0
            metrics = harness.backend.metrics
            while metrics.value("http.results_expired") == 0:
                harness.front.sweep_pending()
                assert time.monotonic() < deadline, "slot never expired"
                time.sleep(0.02)
            status, body = _request(
                harness.port, "GET", f"/result/{ident}"
            )
            assert status == 410
            assert body["error"]["type"] == "Expired"
            assert (
                harness.backend.metrics.value("http.results_expired") == 1
            )
        finally:
            harness.close()

    def test_background_sweeper_expires_without_polling(self):
        harness = _Door(result_ttl_s=0.05)
        try:
            ident = self._submit(harness.port)
            deadline = time.monotonic() + 10.0
            while True:
                status, _ = _request(
                    harness.port, "GET", f"/result/{ident}"
                )
                if status == 410:
                    break
                assert status in (200, 202)
                if status == 200:
                    # Picked up before the sweep: re-submit and retry.
                    ident = self._submit(harness.port)
                assert time.monotonic() < deadline, "sweeper never fired"
                time.sleep(0.05)
        finally:
            harness.close()

    def test_full_map_evicts_oldest_first(self):
        harness = _Door(result_ttl_s=300.0, max_pending=2)
        try:
            first = self._submit(harness.port)
            second = self._submit(harness.port)
            third = self._submit(harness.port)  # evicts `first`
            status, _ = _request(harness.port, "GET", f"/result/{first}")
            assert status == 410
            for ident in (second, third):
                status, _ = _request(
                    harness.port, "GET", f"/result/{ident}"
                )
                assert status in (200, 202)
            assert (
                harness.backend.metrics.value("http.results_expired") == 1
            )
        finally:
            harness.close()

    def test_unexpired_results_survive_the_sweep(self):
        harness = _Door(result_ttl_s=300.0)
        try:
            ident = self._submit(harness.port)
            assert harness.front.sweep_pending() == 0
            status, _ = _request(harness.port, "GET", f"/result/{ident}")
            assert status in (200, 202)
        finally:
            harness.close()
