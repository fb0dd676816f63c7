"""Seeded statement streams and the oracle that checks their replies.

The server only ever sees the generated statement text.  Every stream
is a deterministic function of ``(seed, phase, client)``: each client
thread owns its streams, so what a thread sends never depends on how
fast the other thread ran.

Three stream families, one per catalog usage:

* :class:`PointStreams` — a small fixed pool of statements per instance,
  instance popularity Zipf(1): the plan and result caches mostly hit.
* :class:`ColdStreams` — every statement distinct (drawn without
  replacement from a universe far larger than the 256-entry caches),
  one in five an unsaved ``PROJECT ... AS`` into a rotating slot, so
  catalog versions keep moving.
* :class:`DeriveStreams` — pooled reads and, in a fixed pattern, the
  statements of per-thread, in-order write cycles ``PROJECT .. AS w`` →
  ``SAVE w`` → ``EXISTS .. IN w`` → ``DROP`` (the drop trails by
  :data:`KEEP_SAVED` cycles, so the newest saved names of every phase
  survive for the durability check).
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator, Mapping
from typing import NamedTuple

from repro.algebra.projection_prob import ancestor_projection_local
from repro.core.instance import ProbabilisticInstance
from repro.queries.aggregates import (
    expected_match_count,
    match_count_distribution,
)
from repro.queries.engine import QueryEngine

#: Saved names each client leaves undropped at the end of a phase.
KEEP_SAVED = 8

#: Largest |server - oracle| accepted for a probability or expectation.
TOLERANCE = 1e-9

READ_KINDS = ("EXISTS", "POINT", "COUNT", "DIST", "CHAIN", "PROB")
_COLD_READS = ("EXISTS", "COUNT", "DIST", "POINT")


class Stmt(NamedTuple):
    """One generated statement and what the oracle needs to check it."""

    text: str
    kind: str
    source: str                 # base instance the oracle evaluates on
    path: str | None = None
    oid: str | None = None      # POINT/PROB target; CHAIN: dotted chain
    target: str | None = None   # AS / SAVE / DROP name
    derived: str | None = None  # the derived name the statement reads ...
    via: str | None = None      # ... and the path that projected it


class PathEntry(NamedTuple):
    path: str
    depth: int
    matched: tuple[str, ...]


class PathTable:
    """Every non-empty label path of one tree-shaped instance."""

    def __init__(self, instance: ProbabilisticInstance) -> None:
        graph = instance.weak.graph()
        self.root = instance.root
        self.parent: dict[str, str] = {}
        self.entries: list[PathEntry] = []
        frontier: list[tuple[tuple[str, ...], list[str]]] = [((), [self.root])]
        while frontier:
            labels, oids = frontier.pop()
            by_label: dict[str, list[str]] = {}
            for oid in oids:
                for child in sorted(graph.children(oid)):
                    self.parent[child] = oid
                    by_label.setdefault(graph.label(oid, child), []).append(child)
            for label in sorted(by_label):
                path = (*labels, label)
                self.entries.append(PathEntry(
                    ".".join((self.root, *path)), len(path),
                    tuple(by_label[label]),
                ))
                frontier.append((path, by_label[label]))
        self.entries.sort()
        self.max_depth = max(entry.depth for entry in self.entries)

    def deepest(self, slack: int = 0) -> list[PathEntry]:
        """Entries within ``slack`` levels of the instance's depth."""
        return [e for e in self.entries if e.depth >= self.max_depth - slack]

    def chain_to(self, oid: str) -> str:
        chain = [oid]
        while chain[-1] != self.root:
            chain.append(self.parent[chain[-1]])
        return ".".join(reversed(chain))


def _read(
    kind: str, name: str, table: PathTable, entry: PathEntry,
    rng: random.Random,
) -> Stmt:
    """One read of ``kind`` over ``entry`` (targets drawn from its match)."""
    if kind in ("EXISTS", "COUNT", "DIST"):
        return Stmt(f"{kind} {entry.path} IN {name}", kind, name, entry.path)
    oid = rng.choice(entry.matched)
    if kind == "POINT":
        return Stmt(f"POINT {entry.path} : {oid} IN {name}", kind, name,
                    entry.path, oid)
    if kind == "CHAIN":
        chain = table.chain_to(oid)
        return Stmt(f"CHAIN {chain} IN {name}", kind, name, None, chain)
    return Stmt(f"PROB {oid} IN {name}", "PROB", name, None, oid)


def _rng(seed: int, *parts: object) -> random.Random:
    return random.Random("/".join(str(part) for part in (seed, *parts)))


class _Streams:
    """Shared plumbing: per-instance path tables over one catalog."""

    def __init__(
        self, catalog: Mapping[str, ProbabilisticInstance], seed: int
    ) -> None:
        self.seed = seed
        self.names = sorted(catalog)
        self.tables = {name: PathTable(catalog[name]) for name in self.names}

    def _pool(
        self, name: str, size: int, kinds: tuple[str, ...] = READ_KINDS
    ) -> list[Stmt]:
        """``size`` distinct reads over ``name``, fixed by the seed."""
        rng = _rng(self.seed, "pool", name)
        table = self.tables[name]
        pool: dict[str, Stmt] = {}
        while len(pool) < size:
            stmt = _read(rng.choice(kinds), name, table,
                         rng.choice(table.entries), rng)
            pool.setdefault(stmt.text, stmt)
        return list(pool.values())

    def warmup(self, client: int, count: int) -> list[Stmt]:
        """What ``client`` sends before the windows open."""
        stream = self.stream("warmup", client)
        return [next(stream) for _ in range(count)]


class PointStreams(_Streams):
    """Pooled reads, Zipf(1) instance popularity.

    ``POOL`` statements per instance keep the whole universe (128 with
    32 instances, two cache entries each) inside one 256-entry result
    cache, so after the warm-up nearly every request is a hit.
    """

    POOL = 4

    def __init__(self, catalog, seed: int) -> None:
        super().__init__(catalog, seed)
        ranked = list(self.names)
        _rng(seed, "rank").shuffle(ranked)
        self._ranked = ranked
        self._weights = [1.0 / rank for rank in range(1, len(ranked) + 1)]
        # No PROB on a bibliography: cold, it enumerates the support of
        # the independent OPFs above the object and takes 150-250 ms
        # (45 ms on a tree), which was 40 % of the whole set-up; warm, it
        # is one more cache hit like the rest.
        self._pools = {
            name: self._pool(
                name, self.POOL,
                READ_KINDS if catalog[name].root != "dblp" else READ_KINDS[:-1],
            )
            for name in ranked
        }

    def stream(self, phase: str, client: int) -> Iterator[Stmt]:
        rng = _rng(self.seed, phase, client)
        while True:
            name = rng.choices(self._ranked, self._weights)[0]
            yield rng.choice(self._pools[name])

    def warmup(self, client: int, count: int) -> list[Stmt]:
        """The whole universe, over and over: a random warm-up would
        leave the Zipf tail cold, and how many expensive first-time
        statements then fall inside the window would depend on the seed.
        Both clients send the same statement at about the same time, so
        each of the two workers behind an instance tends to get one."""
        universe = [
            stmt for name in self._ranked for stmt in self._pools[name]
        ]
        return [universe[i % len(universe)] for i in range(count)]


class ColdStreams(_Streams):
    """Distinct statements only; client ``c`` owns instances ``c, c+2, ..``.

    One statement in five is an unsaved ``PROJECT ... AS`` into one of
    ``SLOTS`` rotating slots, so catalog versions keep moving.

    ``SELECT ... AS`` is deliberately absent.  Through the served path a
    selection costs 0.25-0.5 s per statement at 5,461 objects, whether it
    reads the base instance (the persistent result cache serialises the
    whole selected instance) or a 30-object projection in a slot (the
    engine inlines the slot's lineage and pushes the selection below the
    projection, back onto the base instance) -- against 7 ms and 0.3 ms
    for the direct ``select_local`` call.  Even at a 2 % share that set
    every tail percentile, blocked the other client for the duration and
    took a third of the ladder's run time, which the driver's time cap
    does not leave.  README.md records the measurement.

    A client's streams share one ``seen`` set, so no statement repeats
    across its warm-up, open and closed phases.  The runner materialises
    the warm-up and open streams before the closed window starts, which
    keeps every stream a function of the seed alone.
    """

    SLOTS = 8
    WRITE_SHARE = 0.2

    def __init__(self, catalog, seed: int, clients: int) -> None:
        super().__init__(catalog, seed)
        self._deep = {n: self.tables[n].deepest(1) for n in self.names}
        self._owned = [self.names[c::clients] for c in range(clients)]
        self._seen: list[set[str]] = [set() for _ in range(clients)]
        self._writes = [0] * clients

    def stream(self, phase: str, client: int) -> Iterator[Stmt]:
        rng = _rng(self.seed, phase, client)
        seen = self._seen[client]
        repeats = 0
        while True:
            if repeats > 10_000:
                raise RuntimeError(
                    f"client {client} has used up its distinct statements "
                    f"({len(seen)} sent); the catalog is too small for the run"
                )
            name = rng.choice(self._owned[client])
            entry = rng.choice(self._deep[name])
            if rng.random() < self.WRITE_SHARE:
                key = f"PROJECT {entry.path} FROM {name}"
                slot = f"slot{client}_{self._writes[client] % self.SLOTS}"
                stmt = Stmt(f"{key} AS {slot}", "PROJECT", name, entry.path,
                            None, slot)
            else:
                stmt = _read(rng.choice(_COLD_READS), name,
                             self.tables[name], entry, rng)
                key = stmt.text
            if key in seen:
                repeats += 1
                continue
            repeats = 0
            seen.add(key)
            if stmt.target is not None:
                self._writes[client] += 1
            yield stmt


def _spread_out(items: list, start: int) -> Iterator:
    """``items`` for ever, in golden-ratio strides from ``start``: every
    short run of consecutive draws covers the whole list evenly."""
    stride = max(1, round(len(items) * 0.618))
    while math.gcd(stride, len(items)) != 1:
        stride += 1
    for number in range(10**9):
        yield items[(start + number * stride) % len(items)]


class DeriveStreams(_Streams):
    """Pooled reads and the statements of an in-order write cycle in a
    fixed pattern: 40 % reads, 60 % cycle statements, so three
    statements in ten are a ``SAVE`` or a ``DROP``.  (At the issue's
    60 : 40 the storage layer stayed under a fifth of the time.)

    A cycle's cost grows with the match of its path (2 to 160 objects
    here) and a run holds only some thirty cycles per client and phase,
    so drawing mix, sources and paths at random made a run's cost a
    matter of luck.  The mix is a fixed pattern instead, and reads and
    cycles walk their lists (the cycles' sorted by match size) in
    golden-ratio strides; the seed picks where each walk starts.

    ``PROB`` is left out of the reads: on a 1,365-object tree whose
    caches a write has just invalidated it takes seconds, and would be
    the only thing the workload measures.
    """

    POOL = 12
    PATTERN = (True, False, True, False, True)      # True: cycle statement
    KINDS = ("EXISTS", "POINT", "COUNT", "DIST", "CHAIN")

    def __init__(self, catalog, seed: int) -> None:
        super().__init__(catalog, seed)
        self._reads = [
            stmt for name in self.names
            for stmt in self._pool(name, self.POOL, self.KINDS)
        ]
        self._writes = sorted(
            (len(entry.matched), name, entry.path)
            for name in self.names for entry in self.tables[name].deepest()
        )

    def _cycles(self, start: int, phase: str, client: int) -> Iterator[Stmt]:
        walk = _spread_out(self._writes, start)
        for number, (_, source, path) in enumerate(walk):
            name = f"w{client}{phase[0]}_{number}"
            yield Stmt(f"PROJECT {path} FROM {source} AS {name}",
                       "PROJECT", source, path, None, name)
            yield Stmt(f"SAVE {name}", "SAVE", source, None, None, name)
            yield Stmt(f"EXISTS {path} IN {name}", "EXISTS", source, path,
                       None, None, name, path)
            if number >= KEEP_SAVED:
                old = f"w{client}{phase[0]}_{number - KEEP_SAVED}"
                yield Stmt(f"DROP {old}", "DROP", source, None, None, old)

    def stream(self, phase: str, client: int) -> Iterator[Stmt]:
        rng = _rng(self.seed, phase, client)
        reads = _spread_out(self._reads, rng.randrange(len(self._reads)))
        cycles = self._cycles(
            rng.randrange(len(self._writes)), phase, client
        )
        for number in range(rng.randrange(len(self.PATTERN)), 10**9):
            if self.PATTERN[number % len(self.PATTERN)]:
                yield next(cycles)
            else:
                yield next(reads)


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
def direct_answer(stmt: Stmt, instance: ProbabilisticInstance) -> object:
    """``stmt`` answered by a direct ``repro.queries`` / ``repro.algebra``
    call on ``instance`` (``PROJECT``: the projected instance)."""
    if stmt.kind == "EXISTS":
        return QueryEngine(instance).exists(stmt.path)
    if stmt.kind == "POINT":
        return QueryEngine(instance).point(stmt.path, stmt.oid)
    if stmt.kind == "COUNT":
        return expected_match_count(instance, stmt.path)
    if stmt.kind == "DIST":
        return match_count_distribution(instance, stmt.path)
    if stmt.kind == "CHAIN":
        return QueryEngine(instance).chain(stmt.oid.split("."))
    if stmt.kind == "PROB":
        return QueryEngine(instance).object_exists(stmt.oid)
    if stmt.kind == "PROJECT":
        return ancestor_projection_local(instance, stmt.path)
    raise ValueError(f"no direct form of {stmt.kind}")


def oracle_value(
    stmt: Stmt, catalog: Mapping[str, ProbabilisticInstance]
) -> object:
    """What the server's reply to ``stmt`` must agree with.

    Probabilities and expectations are floats, ``DIST`` a ``{count:
    probability}`` dict, ``PROJECT`` the projected instance's object
    count.
    """
    instance = catalog[stmt.source]
    if stmt.via is not None:
        instance = ancestor_projection_local(instance, stmt.via)
    answer = direct_answer(stmt, instance)
    if stmt.kind == "PROJECT":
        return len(answer)
    return answer


def reply_matches(stmt: Stmt, reply: Mapping[str, object], expected: object) -> bool:
    """Whether an HTTP ``result`` body agrees with the oracle's answer."""
    value = reply.get("value")
    text = str(reply.get("text", ""))
    if stmt.kind == "DIST":
        if not isinstance(value, dict) or not isinstance(expected, dict):
            return False
        got = {int(count): float(p) for count, p in value.items()}
        return got.keys() == expected.keys() and all(
            abs(got[count] - p) <= TOLERANCE for count, p in expected.items()
        )
    if stmt.kind == "PROJECT":
        return f"({expected} objects)" in text
    return (
        isinstance(value, (int, float))
        and abs(float(value) - float(expected)) <= TOLERANCE
    )
