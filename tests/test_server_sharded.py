"""Sharded multi-process serving: routing, scatter-gather, failover.

These tests drive a real :class:`ShardedServer` — spawn-context worker
processes over shard-local catalog directories — through the router's
whole contract: consistent-hash routing with a placement overlay for
derived results, broadcast ``LIST``, cross-shard ``PRODUCT`` by
scatter-gather, typed error transport (native reconstruction for known
types, :class:`RemoteExecutionError` for the rest), and the failover
story (``kill_shard`` → :class:`ShardUnavailable`, ``restart_shard`` →
recovery over the surviving on-disk catalog), and the router's own
statement tier, which answers a repeated read without crossing a pipe
and keeps only answers it can prove current.
"""

from __future__ import annotations

import os
import signal
import time
from unittest import mock

import pytest

from repro.algebra import rename_objects
from repro.core.builder import InstanceBuilder
from repro.errors import (
    Overloaded,
    PXMLError,
    RemoteExecutionError,
    ServerError,
    ShardUnavailable,
)
from repro.io.json_codec import dumps, loads
from repro.pxql.interpreter import Interpreter
from repro.resilience.faults import FaultSpec
from repro.server import ShardedServer
from repro.server.wire import _ShardHandle
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


def renamed_copy(instance, prefix: str):
    """A structurally identical instance with globally fresh object ids
    (products require disjoint ids across operands)."""
    return rename_objects(
        instance, {oid: f"{prefix}_{oid}" for oid in instance.objects}
    )


def pick_name(server: ShardedServer, shard: int, stem: str) -> str:
    """A fresh name the ring routes to ``shard`` (probed, deterministic)."""
    for index in range(200):
        candidate = f"{stem}{index}"
        if server.owner(candidate) == shard:
            return candidate
    raise AssertionError(f"no candidate name routed to shard {shard}")


@pytest.fixture(scope="module")
def reference():
    database = Database()
    database.register("bib", build_bib())
    return Interpreter(database=database).execute(STABLE_QUERY).value


@pytest.fixture(scope="module")
def sharded(tmp_path_factory):
    server = ShardedServer(
        tmp_path_factory.mktemp("shards"),
        shards=2,
        workers_per_shard=1,
        queue_size=16,
    )
    server.start()
    bib = build_bib()
    server.register_instance("bib", dumps(bib))
    other_shard = 1 - server.owner("bib")
    mirror = pick_name(server, other_shard, "mirror")
    server.register_instance(mirror, dumps(renamed_copy(bib, "m")))
    server.mirror_name = mirror  # stashed for the tests
    yield server
    server.stop(drain=False, timeout_s=15.0)


class TestRouting:
    def test_owner_is_deterministic_and_uses_every_shard(self, sharded):
        names = [f"name{i}" for i in range(64)]
        owners = [sharded.owner(name) for name in names]
        assert owners == [sharded.owner(name) for name in names]
        assert set(owners) == {0, 1}, "64 names should hit both shards"

    def test_query_routes_to_owning_shard(self, sharded, reference):
        result = sharded.execute(STABLE_QUERY, timeout_s=60.0)
        assert result.value == pytest.approx(reference)

    def test_list_is_a_broadcast_merge(self, sharded):
        result = sharded.execute("LIST", timeout_s=60.0)
        assert isinstance(result.value, list)
        assert "bib" in result.value
        assert sharded.mirror_name in result.value

    def test_derived_result_lands_in_the_overlay(self, sharded):
        # The AS target executes on bib's shard regardless of where the
        # target name hashes; the overlay must route follow-ups there.
        off_home = pick_name(sharded, 1 - sharded.owner("bib"), "derived")
        result = sharded.execute(
            f"PROJECT R.book FROM bib AS {off_home}", timeout_s=60.0
        )
        assert result.instance_name == off_home
        assert sharded.owner(off_home) == sharded.owner("bib")
        shown = sharded.execute(f"SHOW {off_home}", timeout_s=60.0)
        assert shown.text
        dropped = sharded.execute(f"DROP {off_home}", timeout_s=60.0)
        assert dropped.text == f"dropped {off_home}"

    def test_unnamed_results_of_two_shards_never_share_a_name(self, sharded):
        """Regression: each shard's first unnamed result was
        ``_w0_result1``, so ``LIST`` showed one name and the first
        shard's result could not be reached."""
        mirror = sharded.mirror_name
        here = sharded.execute("PROJECT R.book FROM bib", timeout_s=60.0)
        there = sharded.execute(
            f"PROJECT m_R.book.author FROM {mirror}", timeout_s=60.0
        )
        assert here.instance_name != there.instance_name
        listed = sharded.execute("LIST", timeout_s=60.0).value
        assert {here.instance_name, there.instance_name} <= set(listed)
        assert len(loads(sharded.fetch_instance(here.instance_name))) == 3
        assert len(loads(sharded.fetch_instance(there.instance_name))) == 5

    def test_parse_errors_travel_through_the_future(self, sharded):
        with pytest.raises(PXMLError):
            sharded.execute("FROB the knob", timeout_s=10.0)


class TestScatterGather:
    def test_cross_shard_product(self, sharded):
        mirror = sharded.mirror_name
        assert sharded.owner("bib") != sharded.owner(mirror)
        result = sharded.execute(
            f"PRODUCT bib, {mirror} ROOT xr AS combined", timeout_s=60.0
        )
        assert result.instance_name == "combined"
        assert "product of bib" in result.text
        # The product is a real catalog citizen on its home shard.
        payload = sharded.fetch_instance("combined")
        assert len(loads(payload)) > 0
        shown = sharded.execute("SHOW combined", timeout_s=60.0)
        assert shown.text
        assert sharded.metrics.value("router.scatter_products") >= 1

    def test_same_shard_product_stays_on_one_shard(self, sharded):
        home = sharded.owner("bib")
        sibling = pick_name(sharded, home, "sibling")
        sharded.register_instance(
            sibling, dumps(renamed_copy(build_bib(), "s"))
        )
        before = sharded.metrics.value("router.scatter_products")
        result = sharded.execute(
            f"PRODUCT bib, {sibling} ROOT sr AS local_prod", timeout_s=60.0
        )
        assert result.instance_name == "local_prod"
        assert sharded.metrics.value("router.scatter_products") == before

    def test_wrapped_cross_shard_product_is_a_typed_error(self, sharded):
        mirror = sharded.mirror_name
        with pytest.raises(ServerError, match="cross-shard PRODUCT"):
            sharded.execute(
                f"EXPLAIN PRODUCT bib, {mirror} ROOT er AS nope",
                timeout_s=10.0,
            )


class TestErrorTransport:
    def test_unknown_instance_is_a_typed_remote_error(self, sharded):
        with pytest.raises(PXMLError) as excinfo:
            sharded.execute("EXISTS R.x IN does_not_exist", timeout_s=30.0)
        # The static checker fires first on the shard; its CheckError is
        # not reconstructible, so it must arrive as the typed wrapper.
        if isinstance(excinfo.value, RemoteExecutionError):
            assert excinfo.value.remote_type
        # Either way: a PXMLError, never a pickling crash or a hang.

    def test_health_reports_every_shard(self, sharded):
        health = sharded.health()
        assert health["shards"] == 2
        assert len(health["shard_health"]) == 2
        for entry in health["shard_health"]:
            assert "shard" in entry

    def test_metrics_snapshot_mirrors_shard_counters(self, sharded):
        snapshot = sharded.metrics_snapshot()
        shard_keys = [key for key in snapshot if key.startswith("shard")]
        assert any(".server." in key for key in shard_keys)


class TestFailover:
    def test_kill_restart_cycle(self, tmp_path, reference):
        server = ShardedServer(tmp_path, shards=2, workers_per_shard=1)
        server.start()
        try:
            server.register_instance("bib", dumps(build_bib()), save=True)
            home = server.owner("bib")
            assert server.execute(
                STABLE_QUERY, timeout_s=60.0
            ).value == pytest.approx(reference)

            server.kill_shard(home)
            assert not server.alive()
            with pytest.raises(ShardUnavailable) as excinfo:
                server.execute(STABLE_QUERY, timeout_s=10.0)
            assert excinfo.value.shard == home

            # The replacement serves the same on-disk catalog.
            server.restart_shard(home)
            assert server.alive()
            assert server.execute(
                STABLE_QUERY, timeout_s=60.0
            ).value == pytest.approx(reference)
            assert server.metrics.value("router.shard_restarts") == 1
        finally:
            server.stop(drain=False, timeout_s=15.0)

    def test_start_adopts_a_pre_sharding_root_catalog(self, tmp_path,
                                                      reference):
        # A directory previously served single-process: instances sit at
        # the root, not in shard-i/ subdirectories.
        legacy = Database(tmp_path)
        legacy.register("bib", build_bib())
        legacy.save("bib")

        server = ShardedServer(tmp_path, shards=2, workers_per_shard=1)
        server.start()
        try:
            listed = server.execute("LIST", timeout_s=60.0)
            assert "bib" in listed.value
            assert server.execute(
                STABLE_QUERY, timeout_s=60.0
            ).value == pytest.approx(reference)
            assert server.metrics.value("router.adopted_instances") == 1
        finally:
            server.stop(drain=False, timeout_s=15.0)

        # A second start over the same directory adopts nothing new:
        # the shard-local copy now owns the name.
        again = ShardedServer(tmp_path, shards=2, workers_per_shard=1)
        again.start()
        try:
            assert again.metrics.value("router.adopted_instances") == 0
        finally:
            again.stop(drain=False, timeout_s=15.0)

    def test_drain_then_stop_is_clean(self, tmp_path):
        server = ShardedServer(tmp_path, shards=2, workers_per_shard=1)
        server.start()
        server.register_instance("bib", dumps(build_bib()))
        assert server.drain(timeout_s=30.0)
        assert server.stop(drain=True, timeout_s=30.0)
        with pytest.raises(ShardUnavailable):
            server.submit(STABLE_QUERY)


class TestShardManifest:
    """``shards.json``: written on first init, enforced on reopen."""

    def test_manifest_written_on_first_start(self, tmp_path):
        import json

        server = ShardedServer(tmp_path, shards=2, workers_per_shard=1)
        with server:
            manifest = json.loads(
                (tmp_path / "shards.json").read_text(encoding="utf-8")
            )
        assert manifest["shards"] == 2
        assert manifest["vnodes"] == 64

    def test_mismatched_count_is_refused(self, tmp_path):
        from repro.errors import ShardConfigError

        with ShardedServer(tmp_path, shards=2, workers_per_shard=1):
            pass
        mismatched = ShardedServer(tmp_path, shards=3, workers_per_shard=1)
        with pytest.raises(ShardConfigError) as excinfo:
            mismatched.start()
        assert excinfo.value.configured == 3
        assert excinfo.value.recorded == 2
        # Both counts must be readable from the message itself.
        assert "2" in str(excinfo.value) and "3" in str(excinfo.value)

    def test_matching_count_reopens(self, tmp_path, reference):
        payload = dumps(build_bib())
        with ShardedServer(tmp_path, shards=2, workers_per_shard=1) as first:
            first.register_instance("bib", payload)
        reopened = ShardedServer(tmp_path, shards=2, workers_per_shard=1)
        with reopened:
            result = reopened.execute(STABLE_QUERY, timeout_s=30.0)
        assert result.value == pytest.approx(reference)

    def test_unreadable_manifest_is_refused(self, tmp_path):
        from repro.errors import ShardConfigError

        tmp_path.mkdir(exist_ok=True)
        (tmp_path / "shards.json").write_text("{not json", encoding="utf-8")
        server = ShardedServer(tmp_path, shards=2, workers_per_shard=1)
        with pytest.raises(ShardConfigError):
            server.start()


def bib_reference() -> float:
    """Single-process answer to the stable probe over ``build_bib()``."""
    database = Database()
    database.register("bib", build_bib())
    return Interpreter(database=database).execute(
        "EXISTS R.book.author IN bib"
    ).value


class TestWatchdog:
    def test_killed_shard_heals_without_manual_restart(self, tmp_path):
        import time

        server = ShardedServer(
            tmp_path, shards=2, workers_per_shard=1,
            queue_size=16,
            watchdog_interval_s=0.05,
        ).start()
        try:
            server.register_instance("wd", dumps(build_bib()), save=True)
            victim = server.owner("wd")
            server.kill_shard(victim)
            deadline = time.monotonic() + 30.0
            healed = False
            while time.monotonic() < deadline:
                if server.metrics.counter(
                    "router.watchdog_restarts"
                ).value >= 1 and server.ready():
                    healed = True
                    break
                time.sleep(0.05)
            assert healed, "watchdog never restarted the killed shard"
            value = server.execute(
                "EXISTS R.book.author IN wd", timeout_s=60.0
            ).value
            assert value == pytest.approx(bib_reference())
            assert server.metrics.counter(
                "router.shard_restarts"
            ).value >= 1
            assert server.metrics.counter(
                "router.watchdog_gave_up"
            ).value == 0
        finally:
            server.stop(drain=False, timeout_s=15.0)


class TestManifestCompatibility:
    def test_legacy_v1_manifest_parses_as_epoch_zero(self, tmp_path):
        import json

        from repro.server.layout import read_manifest

        (tmp_path / "shards.json").write_text(
            json.dumps({"shards": 2, "vnodes": 64}), encoding="utf-8"
        )
        manifest = read_manifest(tmp_path)
        assert manifest is not None
        assert manifest.layout_epoch == 0
        assert manifest.shards == 2


def _hits(server: ShardedServer) -> float:
    return server.metrics.value("pxql.cache.statements.hits")


def _kept(server: ShardedServer) -> float:
    """How many answers the router's tier holds."""
    return server.metrics.value("pxql.cache.statements.size")


@pytest.fixture
def router(tmp_path):
    server = ShardedServer(tmp_path, shards=2, workers_per_shard=1).start()
    server.register_instance("bib", dumps(build_bib()), save=True)
    yield server
    server.stop(drain=False, timeout_s=15.0)


@pytest.fixture
def parked(tmp_path):
    """A router whose shards park the first two requests to reach a
    worker at ``server.worker.handoff`` until both are there."""
    server = ShardedServer(
        tmp_path, shards=2, workers_per_shard=2,
        fault_specs=[FaultSpec(site="server.worker.handoff", kind="barrier",
                               parties=2, delay_s=10.0, times=2)],
    ).start()
    server.register_instance("bib", dumps(build_bib()))
    yield server
    server.stop(drain=False, timeout_s=15.0)


class TestRouterTier:
    """The router's statement tier: a repeated bare read is answered in
    ``submit`` with no parse, no route and no pipe, and only while the
    answer it kept is provably current."""

    def test_repeated_read_crosses_no_pipe(self, router, reference):
        first = router.execute(STABLE_QUERY, timeout_s=60.0)
        hits = _hits(router)
        with mock.patch.object(
            _ShardHandle, "request", side_effect=AssertionError("crossed a pipe")
        ):
            again = router.submit(STABLE_QUERY)
        assert again.done()
        assert again.result().value == first.value == pytest.approx(reference)
        assert _hits(router) == hits + 1

    def test_writes_through_the_router_are_seen(self, router):
        name = pick_name(router, 1 - router.owner("bib"), "derived")
        read = f"EXISTS R.book.author IN {name}"
        router.execute(f"PROJECT R.book.author FROM bib AS {name}", timeout_s=60.0)
        kept = router.execute(read, timeout_s=60.0).value
        assert kept == pytest.approx(bib_reference())
        assert router.execute(read, timeout_s=60.0).value == kept
        assert router.execute(f"SAVE {name}", timeout_s=60.0).text.startswith("saved")
        hits = _hits(router)
        assert router.execute(read, timeout_s=60.0).value == kept
        assert _hits(router) == hits  # the SAVE moved the stamp: a miss
        router.execute(f"DROP {name}", timeout_s=60.0)
        with pytest.raises(PXMLError, match="unknown instance"):
            router.execute(read, timeout_s=60.0)
        router.execute(f"PROJECT R.book FROM bib AS {name}", timeout_s=60.0)
        assert router.execute(read, timeout_s=60.0).value == 0.0

    def test_read_overtaken_by_a_write_is_not_kept(self, parked):
        read = "EXISTS R.book IN bib"
        pending = parked.submit(read)  # parked until the write arrives
        write = parked.submit("PROJECT R.book FROM bib AS overtaking")
        assert write.result(60.0).instance_name == "overtaking"
        assert pending.result(60.0).value == pytest.approx(0.9)
        assert _kept(parked) == 0
        parked.execute(read, timeout_s=60.0)  # nothing in flight now
        assert _kept(parked) == 1

    def test_read_behind_a_write_in_flight_is_not_kept(self, parked):
        read = "EXISTS R.book IN bib"
        write = parked.submit("PROJECT R.book FROM bib AS ahead")
        pending = parked.submit(read)  # sent while the write is parked
        assert pending.result(60.0).value == pytest.approx(0.9)
        assert write.result(60.0).instance_name == "ahead"
        assert _kept(parked) == 0

    def test_save_by_another_process_is_a_miss(self, router, reference):
        assert router.execute(STABLE_QUERY, timeout_s=60.0).value == pytest.approx(
            reference
        )
        home = router.shard_directories()[router.owner("bib")]
        other = Database(home)
        other.register("bib", build_bib_without_b1_authors(), replace=True)
        other.save("bib")
        hits = _hits(router)
        changed = router.execute(STABLE_QUERY, timeout_s=60.0).value
        assert _hits(router) == hits
        assert changed == pytest.approx(0.6 * 0.6)  # only B2's author left

    @pytest.mark.parametrize("how", ["kill_shard", "os.kill"])
    def test_a_dead_shard_is_a_miss(self, router, reference, how):
        router.execute(STABLE_QUERY, timeout_s=60.0)
        home = router.owner("bib")
        if how == "kill_shard":
            router.kill_shard(home)
        else:
            os.kill(router._handles[home]._process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while router.alive():
                assert time.monotonic() < deadline, "the kill was never seen"
                time.sleep(0.01)
        with pytest.raises(ShardUnavailable):
            router.execute(STABLE_QUERY, timeout_s=10.0)
        router.restart_shard(home)
        hits = _hits(router)
        assert router.execute(STABLE_QUERY, timeout_s=60.0).value == pytest.approx(
            reference
        )
        assert _hits(router) == hits  # recomputed by the new process
        assert router.execute(STABLE_QUERY, timeout_s=60.0).value == pytest.approx(
            reference
        )
        assert _hits(router) == hits + 1

    def test_drained_router_answers_nothing(self, router):
        router.execute(STABLE_QUERY, timeout_s=60.0)
        assert router.drain(timeout_s=30.0)
        with pytest.raises(Overloaded) as excinfo:
            router.execute(STABLE_QUERY, timeout_s=10.0)
        assert excinfo.value.reason == "draining"

    def test_a_returned_distribution_is_the_callers(self, router):
        read = "DIST R.book.author IN bib"
        first = router.execute(read, timeout_s=60.0).value
        expected = dict(first)
        first.clear()
        again = router.execute(read, timeout_s=60.0).value
        assert again == expected
        again.clear()
        assert router.execute(read, timeout_s=60.0).value == expected

    def test_health_reconciles_hits_misses_and_failures(self, router):
        for text in (STABLE_QUERY, STABLE_QUERY, "COUNT R.book IN bib",
                     "COUNT R.book IN bib", "EXISTS R.x IN nowhere", "FROB"):
            try:
                router.execute(text, timeout_s=60.0)
            except PXMLError:
                pass
        health = router.health()
        assert _hits(router) == 2
        assert health["failed"] == 2
        assert health["submitted"] == health["completed"] + health["failed"] == 6


def build_bib_without_b1_authors():
    """``build_bib()`` with ``B1``'s author gone: only ``B2``'s remains."""
    b = InstanceBuilder("R")
    b.children("R", "book", ["B1", "B2"])
    b.opf("R", {("B1",): 0.3, ("B2",): 0.2, ("B1", "B2"): 0.4, (): 0.1})
    b.children("B2", "author", ["A3"])
    b.opf("B2", {("A3",): 0.6, (): 0.4})
    b.leaf("A3", "name", ["y"], {"y": 1.0})
    return b.build()
