"""The router's routing state as a plain object: no process is spawned.

:class:`~repro.server.routing.Router` holds the ring and the placement
overlay of a sharded deployment.  These tests build one directly and pin
the order ``owner`` consults them in, the one-step layout install and
where sourceless statements go.
"""

from __future__ import annotations

from repro.pxql.parser import parse
from repro.server.layout import DEFAULT_VNODES, build_ring, ring_owner
from repro.server.routing import Router, unwrap


def home(name: str, shards: int) -> int:
    return ring_owner(*build_ring(shards, DEFAULT_VNODES), name)


def pick(stem: str, accept) -> str:
    """The first ``stem<i>`` whose ring homes satisfy ``accept``."""
    return next(
        f"{stem}{i}" for i in range(500)
        if accept(home(f"{stem}{i}", 2), home(f"{stem}{i}", 3))
    )


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
    def test_install_keeps_off_home_placements_and_drops_retired_shards(self):
        router = Router(3)
        off_home = pick("o", lambda h2, h3: h2 != 0)
        retired = pick("r", lambda h2, h3: True)
        router.install(2, {off_home: 0, retired: 2})
        assert router.owner(off_home) == 0
        assert router.owner(retired) == home(retired, 2)
        assert router.overlay_size == 1


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
