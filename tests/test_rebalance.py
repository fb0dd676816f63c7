"""Crash-consistent live shard rebalancing: plan, execute, resume.

Covers the migration protocol end to end: exact plan computation over
actual placements (overlay strays included), journaled two-phase
copy-then-cutover with a monotone layout epoch, resume-never-restart
after a mid-migration failure (in-process fault injection *and* a real
SIGKILL via the crash-sweep child), ``fsck --shards`` auditing of a
sharded root, the live router's write fence and epoch bump across
``resize(n)``, the self-healing watchdog, and the HTTP front door's
``/rebalance`` routes and typed-error status codes.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import (
    FaultError,
    RebalanceError,
    RebalanceInProgress,
)
from repro.io.json_codec import dumps
from repro.paper import example52_instance, figure2_instance
from repro.resilience.crashsweep import (
    rebalance_placements,
    run_rebalance_cycle,
    spawn_child,
    verify_rebalance_recovery,
)
from repro.resilience.faults import FaultInjector, FaultSpec
from repro.server import ShardedServer
from repro.server.http import error_payload
from repro.server.rebalance import (
    DEFAULT_VNODES,
    DirectoryShardAccess,
    Move,
    RebalanceJournal,
    Rebalancer,
    ShardManifest,
    build_ring,
    pending_rebalance,
    plan_rebalance,
    read_manifest,
    resume_rebalance,
    ring_owner,
    write_manifest,
)
from repro.storage.database import Database
from repro.storage.fsck import fsck_sharded_root
from repro.storage.journal import INSTANCE_SUFFIX


def ring_home(name: str, shards: int) -> int:
    positions, owners = build_ring(shards, DEFAULT_VNODES)
    return ring_owner(positions, owners, name)


def bib_reference() -> float:
    """Single-process answer to the stable probe over ``build_bib()``."""
    from repro.pxql.interpreter import Interpreter
    from tests.test_server_sharded import build_bib

    database = Database()
    database.register("bib", build_bib())
    return Interpreter(database=database).execute(
        "EXISTS R.book.author IN bib"
    ).value


def seeded_root(tmp_path, seed: int = 3):
    """A 2-shard root with the crash-sweep's deterministic placements."""
    placements = rebalance_placements(seed)
    write_manifest(tmp_path, ShardManifest(shards=2))
    access = DirectoryShardAccess(tmp_path)
    for position, name in enumerate(sorted(placements)):
        instance = (
            figure2_instance() if position % 2 else example52_instance()
        )
        access.store(placements[name], name, dumps(instance))
    return placements, access


def holders_of(root, name: str, shards: int = 3) -> list[int]:
    return [
        shard for shard in range(shards)
        if (root / f"shard-{shard}" / f"{name}{INSTANCE_SUFFIX}").is_file()
    ]


class TestPlan:
    def test_moves_are_exactly_the_ring_diff(self):
        placements = {
            f"n{i}": ring_home(f"n{i}", 2) for i in range(32)
        }
        plan = plan_rebalance(placements, old_shards=2, new_shards=3)
        moved = {move.name for move in plan.moves}
        for name, current in placements.items():
            changed = ring_home(name, 3) != current
            assert (name in moved) == changed
        for move in plan.moves:
            assert move.source == placements[move.name]
            assert move.dest == ring_home(move.name, 3)

    def test_overlay_stray_is_brought_home(self):
        name = "stray0"
        off_home = 1 - ring_home(name, 2)
        plan = plan_rebalance({name: off_home}, old_shards=2, new_shards=2)
        # Same shard count, but the name sits off its ring home: the
        # self-healing plan still moves it.
        if ring_home(name, 2) != off_home:
            assert plan.moves == (
                Move(name=name, source=off_home, dest=ring_home(name, 2)),
            )

    def test_bad_placement_is_refused(self):
        with pytest.raises(RebalanceError):
            plan_rebalance({"x": 5}, old_shards=2, new_shards=3)
        with pytest.raises(RebalanceError):
            plan_rebalance({}, old_shards=0, new_shards=3)

    def test_epoch_is_monotone(self):
        plan = plan_rebalance({}, old_shards=2, new_shards=3, from_epoch=4)
        assert plan.to_epoch == 5


class TestOfflineExecute:
    def test_execute_converges_and_bumps_epoch(self, tmp_path):
        placements, access = seeded_root(tmp_path)
        plan = plan_rebalance(placements, old_shards=2, new_shards=3)
        assert plan.moves, "the seeded placements must require moves"
        status = Rebalancer(tmp_path, access).execute(plan)
        assert status.state == "done"
        assert status.completed_moves == len(plan.moves)
        manifest = read_manifest(tmp_path)
        assert manifest is not None
        assert (manifest.shards, manifest.layout_epoch) == (3, 1)
        for name in placements:
            assert holders_of(tmp_path, name) == [ring_home(name, 3)]
        # Fully resolved: journal compacted, plan body gone.
        assert pending_rebalance(tmp_path) is None
        records, torn = RebalanceJournal(tmp_path).read()
        assert records == [] and not torn

    def test_interrupted_migration_is_resumed_not_restarted(self, tmp_path):
        placements, access = seeded_root(tmp_path)
        plan = plan_rebalance(placements, old_shards=2, new_shards=3)
        assert len(plan.moves) >= 2
        # Fail right after the first durable cutover: the journal holds
        # plan + move-begin + move-commit for move 1 only.
        spec = FaultSpec(
            site="rebalance.move.commit", kind="error", nth=1, times=1
        )
        with pytest.raises(FaultError):
            with FaultInjector(spec, seed=0):
                Rebalancer(tmp_path, access).execute(plan)
        pending = pending_rebalance(tmp_path)
        assert pending is not None and pending.to_epoch == 1
        committed = RebalanceJournal.committed_names(
            RebalanceJournal(tmp_path).read()[0]
        )
        assert committed == {plan.moves[0].name}
        status = resume_rebalance(tmp_path)
        assert status is not None and status.resumed
        manifest = read_manifest(tmp_path)
        assert manifest is not None and manifest.layout_epoch == 1
        for name in placements:
            assert holders_of(tmp_path, name) == [ring_home(name, 3)]
        assert resume_rebalance(tmp_path) is None  # nothing left pending

    def test_sigkill_mid_migration_then_resume(self, tmp_path):
        # A real power-cut: the crash-sweep child is SIGKILLed at the
        # cutover of the first move, then recovery must converge.
        root = tmp_path / "root"
        proc = spawn_child(
            root, "rebalance.move.commit", 1, seed=5, mode="rebalance"
        )
        assert proc.returncode == -9, proc.stderr
        ok, detail = verify_rebalance_recovery(root, seed=5)
        assert ok, detail


class TestFsckShards:
    def test_clean_root_is_clean(self, tmp_path):
        run_rebalance_cycle(tmp_path, seed=3)
        report = fsck_sharded_root(tmp_path)
        assert report.clean, [f.as_dict() for f in report.findings]
        assert report.checked_instances == len(rebalance_placements(3))

    def test_pending_migration_is_found_and_repaired(self, tmp_path):
        placements, access = seeded_root(tmp_path)
        plan = plan_rebalance(placements, old_shards=2, new_shards=3)
        spec = FaultSpec(
            site="rebalance.move.commit", kind="error", nth=1, times=1
        )
        with pytest.raises(FaultError):
            with FaultInjector(spec, seed=0):
                Rebalancer(tmp_path, access).execute(plan)
        check = fsck_sharded_root(tmp_path)
        codes = {f.code for f in check.findings}
        assert "FS132" in codes
        repaired = fsck_sharded_root(tmp_path, repair=True)
        assert not repaired.unrepaired, [
            f.as_dict() for f in repaired.unrepaired
        ]
        assert fsck_sharded_root(tmp_path).clean
        manifest = read_manifest(tmp_path)
        assert manifest is not None and manifest.shards == 3

    def test_duplicate_instance_is_flagged(self, tmp_path):
        run_rebalance_cycle(tmp_path, seed=3)
        name = sorted(rebalance_placements(3))[0]
        home = ring_home(name, 3)
        other = (home + 1) % 3
        source = tmp_path / f"shard-{home}" / f"{name}{INSTANCE_SUFFIX}"
        target_dir = tmp_path / f"shard-{other}"
        target_dir.mkdir(exist_ok=True)
        (target_dir / source.name).write_text(
            source.read_text(encoding="utf-8"), encoding="utf-8"
        )
        report = fsck_sharded_root(tmp_path)
        assert any(
            f.code == "FS133" and name in f.path for f in report.findings
        )

    def test_missing_shard_dir_and_bad_manifest(self, tmp_path):
        run_rebalance_cycle(tmp_path, seed=3)
        # Remove a shard directory the manifest names.
        victim = tmp_path / "shard-2"
        for child in victim.iterdir():
            child.unlink()
        victim.rmdir()
        report = fsck_sharded_root(tmp_path, repair=True)
        assert any(
            f.code == "FS134" and f.repaired for f in report.findings
        )
        assert victim.is_dir()
        # An undecodable manifest is refused, never guessed around.
        (tmp_path / "shards.json").write_text("{not json", encoding="utf-8")
        report = fsck_sharded_root(tmp_path)
        assert [f.code for f in report.findings] == ["FS130"]
        assert report.unrepaired

    def test_cli_shards_flag(self, tmp_path, capsys):
        from repro.storage.fsck import main

        run_rebalance_cycle(tmp_path, seed=3)
        assert main(["fsck", str(tmp_path), "--shards", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True


class TestLiveResize:
    def test_grow_serves_and_bumps_epoch(self, tmp_path):
        server = ShardedServer(
            tmp_path, shards=2, workers_per_shard=1,
            queue_size=16, poll_s=0.005,
        ).start()
        try:
            from tests.test_server_sharded import build_bib

            bib = dumps(build_bib())
            names = [f"live{i}" for i in range(6)]
            for name in names:
                server.register_instance(name, bib, save=True)
            status = server.resize(3)
            assert status.state == "done"
            assert server.shards == 3
            health = server.health()
            assert health["layout_epoch"] == 1
            assert server.rebalance_status()["state"] == "done"
            listed = server.execute("LIST", timeout_s=60.0).value
            assert sorted(listed) == names
            reference = bib_reference()
            for name in names:
                value = server.execute(
                    f"EXISTS R.book.author IN {name}", timeout_s=60.0
                ).value
                assert value == pytest.approx(reference)
            # A fresh open with the new count adopts the manifest.
            server.stop(drain=True, timeout_s=15.0)
            reopened = ShardedServer(
                tmp_path, shards=3, workers_per_shard=1,
                queue_size=16, poll_s=0.005,
            ).start()
            try:
                listed = reopened.execute("LIST", timeout_s=60.0).value
                assert sorted(listed) == names
            finally:
                reopened.stop(drain=False, timeout_s=15.0)
        finally:
            server.stop(drain=False, timeout_s=15.0)

    def test_resize_rejects_bad_counts(self, tmp_path):
        server = ShardedServer(
            tmp_path, shards=2, workers_per_shard=1,
            queue_size=16, poll_s=0.005,
        ).start()
        try:
            with pytest.raises(RebalanceError):
                server.resize(0)
        finally:
            server.stop(drain=False, timeout_s=15.0)

    def test_write_fence_is_a_typed_retryable_error(self, tmp_path):
        server = ShardedServer(
            tmp_path, shards=2, workers_per_shard=1,
            queue_size=16, poll_s=0.005,
        ).start()
        try:
            from tests.test_server_sharded import build_bib

            server.register_instance("fenced", dumps(build_bib()), save=True)
            # Freeze the migration state a mid-copy move would install.
            server.router.migrate([Move(name="fenced", source=0, dest=1)])
            server.router.on_phase("fenced", "copying")
            pending = server.submit("SAVE fenced")
            error = pending.error(10.0)
            assert isinstance(error, RebalanceInProgress)
            assert error.name == "fenced"
            server.router.abandon()
            # Fence lifted: the same write goes through.
            assert server.submit("SAVE fenced").result(30.0) is not None
            assert server.metrics.counter("router.writes_fenced").value >= 1
        finally:
            server.stop(drain=False, timeout_s=15.0)

    def test_a_read_that_lost_the_cutover_is_retried_at_the_new_owner(
        self, tmp_path
    ):
        """Regression: the source shard's checker reports the deleted
        name as PX201 before execution can raise ``DatabaseError``, and
        the dual-check retry never fired for it."""
        from repro.pxql.parser import parse
        from tests.test_server_sharded import build_bib

        server = ShardedServer(
            tmp_path, shards=2, workers_per_shard=1,
            queue_size=16, poll_s=0.005,
        ).start()
        try:
            bib = dumps(build_bib())
            server.register_instance("moved", bib, save=True)
            source = server.owner("moved")
            # The cutover committed: the copy is on the destination ...
            server.router.migrate(
                [Move(name="moved", source=source, dest=1 - source)]
            )
            server.router.on_phase("moved", "committed")
            assert server.register_instance("moved", bib) == 1 - source
            # ... and the source copy is gone.
            server._call(source, "discard", name="moved")
            # A read routed to the source before the flip arrives now.
            text = "EXISTS R.book.author IN moved"
            result = server._submit_to_shard(
                source, text, None, parse(text)
            ).result(30.0)
            assert result.value == pytest.approx(bib_reference())
            assert server.metrics.value("router.dual_check_retries") == 1
        finally:
            server.stop(drain=False, timeout_s=15.0)

    def test_owner_is_the_new_home_at_every_point_after_the_flip(
        self, tmp_path
    ):
        """Regression: the ring flipped before the overlay was rebuilt,
        and on a shrink the retired shards drained in between, so a
        moved derived name was routed to the shard it had left (past
        the live handles: an untyped ``IndexError``)."""
        import threading
        import time

        from tests.test_server_sharded import build_bib

        server = ShardedServer(
            tmp_path, shards=3, workers_per_shard=1,
            queue_size=16, poll_s=0.005,
        ).start()
        try:
            source = next(
                f"src{i}" for i in range(500) if ring_home(f"src{i}", 3) == 2
            )
            derived = next(
                f"w{i}" for i in range(500) if ring_home(f"w{i}", 3) != 2
            )
            server.register_instance(source, dumps(build_bib()), save=True)
            server.execute(
                f"PROJECT R.book FROM {source} AS {derived}", timeout_s=60.0
            )
            assert server.owner(derived) == 2  # off its home, in the overlay
            new_home = ring_home(derived, 2)
            seen: list[int] = []
            done = threading.Event()

            def watch():
                while not done.is_set():
                    shards, owner = server.shards, server.owner(derived)
                    if shards == 2:
                        seen.append(owner)
                    time.sleep(0.0005)

            watcher = threading.Thread(target=watch, daemon=True)
            watcher.start()
            try:
                server.resize(2)
            finally:
                done.set()
                watcher.join(10.0)
            assert set(seen) <= {new_home}, set(seen)
            assert server.owner(derived) == new_home
            value = server.execute(
                f"EXISTS R.book IN {derived}", timeout_s=60.0
            ).value
            assert 0.0 < value <= 1.0
        finally:
            server.stop(drain=False, timeout_s=15.0)


class TestWatchdog:
    def test_killed_shard_heals_without_manual_restart(self, tmp_path):
        import time

        server = ShardedServer(
            tmp_path, shards=2, workers_per_shard=1,
            queue_size=16, poll_s=0.005,
            watchdog_interval_s=0.05,
        ).start()
        try:
            from tests.test_server_sharded import build_bib

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


class TestHttpRoutes:
    def test_error_payload_status_codes(self):
        status, body = error_payload(RebalanceInProgress("wait", name="x"))
        assert status == 503
        assert body["error"]["type"] == "RebalanceInProgress"
        status, body = error_payload(RebalanceError("already running"))
        assert status == 409

    def test_rebalance_routes_over_sockets(self, tmp_path):
        import asyncio
        import threading
        import time
        import urllib.error
        import urllib.request

        from repro.server import HttpFrontDoor

        server = ShardedServer(
            tmp_path, shards=2, workers_per_shard=1,
            queue_size=16, poll_s=0.005,
        ).start()
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()

        def run(coro):
            return asyncio.run_coroutine_threadsafe(coro, loop).result(30.0)

        front = HttpFrontDoor(server, port=0)
        run(front.start())
        base = f"http://127.0.0.1:{front.bound_port}"
        try:
            with urllib.request.urlopen(
                f"{base}/rebalance/status", timeout=10
            ) as response:
                payload = json.loads(response.read())
            assert payload["rebalance"]["state"] == "idle"

            request = urllib.request.Request(
                f"{base}/rebalance",
                data=json.dumps({"shards": 3}).encode("utf-8"),
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                assert response.status == 202
                accepted = json.loads(response.read())
            assert accepted["rebalance"]["requested_shards"] == 3

            deadline = time.monotonic() + 60.0
            state = ""
            while time.monotonic() < deadline:
                with urllib.request.urlopen(
                    f"{base}/rebalance/status", timeout=10
                ) as response:
                    snapshot = json.loads(response.read())["rebalance"]
                state = snapshot["state"]
                if state == "done":
                    break
                time.sleep(0.05)
            assert state == "done", snapshot
            assert snapshot["layout_epoch"] == 1
            assert snapshot["shards"] == 3

            bad = urllib.request.Request(
                f"{base}/rebalance",
                data=json.dumps({"shards": "many"}).encode("utf-8"),
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(bad, timeout=10)
            assert excinfo.value.code == 400
        finally:
            run(front.shutdown(drain_timeout_s=10.0))
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10.0)
            loop.close()
            server.stop(drain=False, timeout_s=15.0)


class TestManifestCompatibility:
    def test_legacy_v1_manifest_parses_as_epoch_zero(self, tmp_path):
        (tmp_path / "shards.json").write_text(
            json.dumps({"shards": 2, "vnodes": 64}), encoding="utf-8"
        )
        manifest = read_manifest(tmp_path)
        assert manifest is not None
        assert manifest.layout_epoch == 0
        assert manifest.shards == 2

    def test_database_roundtrip_after_offline_rebalance(self, tmp_path):
        placements, access = seeded_root(tmp_path)
        plan = plan_rebalance(placements, old_shards=2, new_shards=3)
        Rebalancer(tmp_path, access).execute(plan)
        for name in placements:
            home = ring_home(name, 3)
            db = Database(tmp_path / f"shard-{home}")
            assert name in db.names()
            db.get(name)  # checksum-clean load
