"""The router's routing state as a plain object: no process is spawned.

:class:`~repro.server.routing.Router` holds the ring, the placement
overlay and the per-key migration state of a sharded deployment.  These
tests build one directly and pin the order ``owner`` consults them in,
the one-step layout install, the write fence, the dual-check predicate
and where sourceless statements go.
"""

from __future__ import annotations

from repro.errors import BudgetExceeded, RemoteExecutionError, ShardUnavailable
from repro.pxql.parser import parse
from repro.server.rebalance import DEFAULT_VNODES, Move, build_ring, ring_owner
from repro.server.routing import Router, unwrap
from repro.storage.database import DatabaseError


def home(name: str, shards: int) -> int:
    return ring_owner(*build_ring(shards, DEFAULT_VNODES), name)


def pick(stem: str, accept) -> str:
    """The first ``stem<i>`` whose ring homes satisfy ``accept``."""
    return next(
        f"{stem}{i}" for i in range(500)
        if accept(home(f"{stem}{i}", 2), home(f"{stem}{i}", 3))
    )


def check_error(*codes: str) -> RemoteExecutionError:
    error = RemoteExecutionError("shard 0 raised CheckError: ...",
                                 remote_type="CheckError")
    error.codes = codes
    return error


class TestOwner:
    def test_ring_answers_when_nothing_else_does(self):
        router = Router(3)
        for i in range(32):
            assert router.owner(f"n{i}") == home(f"n{i}", 3)

    def test_overlay_beats_the_ring(self):
        router = Router(3)
        name = "n0"
        off_home = (home(name, 3) + 1) % 3
        router.place(name, off_home)
        assert router.owner(name) == off_home
        assert router.overlay_size == 1
        router.place(name, home(name, 3))  # back home: no entry needed
        assert router.owner(name) == home(name, 3)
        assert router.overlay_size == 0
        router.place(name, off_home)
        router.forget(name)
        assert router.owner(name) == home(name, 3)

    def test_migration_beats_the_overlay(self):
        router = Router(3)
        name = "n0"
        placed, source, dest = [(home(name, 3) + k) % 3 for k in (1, 2, 0)]
        router.place(name, placed)
        router.migrate([Move(name=name, source=source, dest=dest)])
        assert router.migrating == 1
        # Pending and copying keys are served at the source ...
        assert router.owner(name) == source
        router.on_phase(name, "copying")
        assert router.owner(name) == source
        # ... a committed cutover at the destination, through "done".
        router.on_phase(name, "committed")
        assert router.owner(name) == dest
        router.on_phase(name, "done")
        assert router.owner(name) == dest

    def test_abandon_keeps_only_committed_cutovers(self):
        router = Router(2)
        committed, copying = "c0", "c1"
        router.migrate([
            Move(name=committed, source=home(committed, 2),
                 dest=1 - home(committed, 2)),
            Move(name=copying, source=home(copying, 2),
                 dest=1 - home(copying, 2)),
        ])
        router.on_phase(committed, "committed")
        router.on_phase(copying, "copying")
        router.abandon()
        assert router.owner(committed) == 1 - home(committed, 2)
        assert router.owner(copying) == home(copying, 2)
        assert router.migrating == 1

    def test_relearn_replaces_one_shards_entries(self):
        router = Router(3)
        stale = pick("s", lambda h2, h3: h3 != 1)
        kept = pick("k", lambda h2, h3: h3 not in (1, 2))
        fresh = pick("f", lambda h2, h3: h3 != 1)
        router.place(stale, 1)
        router.place(kept, 2)
        router.relearn(1, [fresh])
        assert router.owner(stale) == home(stale, 3)
        assert router.owner(kept) == 2
        assert router.owner(fresh) == 1


class TestInstall:
    def test_a_moved_off_home_name_is_at_its_new_home_from_the_flip_on(self):
        # Derived on shard 0 off its 2-ring home, moved to its 3-ring
        # home by a 2 -> 3 resize: at no point after the cutover may
        # owner() answer the shard it left.
        router = Router(2)
        name = pick("w", lambda h2, h3: h2 != 0 and h3 != 0)
        router.place(name, 0)
        router.migrate([Move(name=name, source=0, dest=home(name, 3))])
        for phase in ("copying", "committed", "done"):
            router.on_phase(name, phase)
        assert router.owner(name) == home(name, 3)
        router.install(3, {name: home(name, 3)})
        assert router.owner(name) == home(name, 3)
        assert (router.shards, router.overlay_size, router.migrating) == (3, 0, 0)

    def test_install_keeps_off_home_placements_and_drops_retired_shards(self):
        router = Router(3)
        off_home = pick("o", lambda h2, h3: h2 != 0)
        retired = pick("r", lambda h2, h3: True)
        router.install(2, {off_home: 0, retired: 2})
        assert router.owner(off_home) == 0
        assert router.owner(retired) == home(retired, 2)
        assert router.overlay_size == 1


class TestFence:
    def test_writes_to_a_copying_key_are_fenced(self):
        router = Router(2)
        router.migrate([Move(name="x", source=0, dest=1)])
        router.on_phase("x", "copying")
        for text in ("DROP x", "SAVE x", 'LOAD x FROM "x.json"',
                     "PROJECT R.a FROM y AS x", "PRODUCT a, b ROOT r AS x"):
            assert router.fenced(unwrap(parse(text))) == "x", text
        for text in ("EXISTS R.a IN x", "PROJECT R.a FROM x AS y", "SHOW x"):
            assert router.fenced(unwrap(parse(text))) is None, text

    def test_pending_and_committed_keys_are_writable(self):
        router = Router(2)
        router.migrate([Move(name="x", source=0, dest=1)])
        assert router.fenced(parse("DROP x")) is None
        router.on_phase("x", "committed")
        assert router.fenced(parse("DROP x")) is None


class TestRoute:
    def test_sourceless_statements_go_to_shard_zero(self):
        router = Router(3)
        assert router.route(parse("SET TIMEOUT 5")) == 0

    def test_wrapped_statements_route_by_their_source(self):
        router = Router(3)
        name = pick("src", lambda h2, h3: h3 != 0)
        for text in (f"EXISTS R.a IN {name}", f"CHECK EXISTS R.a IN {name}",
                     f"EXPLAIN EXISTS R.a IN {name}", f"DROP {name}",
                     f"PRODUCT {name}, other ROOT r AS t"):
            assert router.route(unwrap(parse(text))) == home(name, 3), text


class TestDualCheck:
    def committed(self):
        router = Router(2)
        name = "moved"
        source = home(name, 2)
        router.migrate([Move(name=name, source=source, dest=1 - source)])
        router.on_phase(name, "committed")
        return router, source, parse(f"EXISTS R.a IN {name}")

    def test_name_missing_at_the_source_retries_at_the_new_owner(self):
        router, source, read = self.committed()
        for error in (DatabaseError("unknown instance: 'moved'"),
                      ShardUnavailable("gone", shard=source),
                      check_error("PX201"), check_error("PX301", "PX201")):
            assert router.retry_shard(read, source, error) == 1 - source, error

    def test_other_failures_stay_failures(self):
        router, source, read = self.committed()
        for error in (check_error(), check_error("PX201", "PX240"),
                      BudgetExceeded("slow", limit="deadline"),
                      RemoteExecutionError("boom", remote_type="ValueError")):
            assert router.retry_shard(read, source, error) is None, error

    def test_no_retry_where_the_owner_did_not_move(self):
        router, source, read = self.committed()
        missing = DatabaseError("unknown instance")
        assert router.retry_shard(read, 1 - source, missing) is None
        assert router.retry_shard(parse("SET TIMEOUT 1"), 0, missing) is None
