"""Where an instance name is served: the router's routing state.

:class:`Router` is a plain object — no process, no pipe — holding the
three things a routing decision reads, under one lock:

* the consistent-hash **ring** (SHA-256 positions, ``vnodes`` per shard);
* the **placement overlay**: derived results (``AS`` targets) live on
  the shard that executed them, which may not be the name's ring home;
* the **per-key migration state** of a live resize: ``name -> (move,
  phase)``; ``"pending"`` / ``"copying"`` serve from the source,
  ``"committed"`` from the destination, and ``"copying"`` fences writes.

A layout is adopted by :meth:`Router.install` in one step — ring,
overlay and an empty migration map together — so :meth:`Router.owner`
never answers from a new ring with an old overlay.  The write fence
(:meth:`Router.fenced`) and the dual-check predicate
(:meth:`Router.retry_shard`) are decisions over the same state.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Mapping

from repro.errors import RemoteExecutionError, ShardUnavailable
from repro.pxql import ast
from repro.server.rebalance import DEFAULT_VNODES, Move, build_ring, ring_owner
from repro.storage.database import DatabaseError

#: Statements that mutate the catalog entry they name.
_MUTATORS = (ast.DropStatement, ast.SaveStatement, ast.LoadStatement)

#: Wrapper statements that are unwrapped for routing analysis.
_WRAPPERS = (
    ast.ExplainStatement,
    ast.CheckStatement,
    ast.ProfileStatement,
    ast.TimeoutStatement,
)

#: Check findings that say a statement names an instance that is not there.
_UNKNOWN_INSTANCE = frozenset({"PX201", "PX301"})


def unwrap(statement: ast.Statement) -> ast.Statement:
    """The statement under any EXPLAIN / CHECK / PROFILE / WITH TIMEOUT."""
    while isinstance(statement, _WRAPPERS):
        statement = statement.statement
    return statement


def _key(inner: ast.Statement) -> str | None:
    """The instance a statement reads or names (its routing key)."""
    for attr in ("source", "name"):
        value = getattr(inner, attr, None)
        if isinstance(value, str):
            return value
    return None


def _name_missing(error: BaseException) -> bool:
    """Whether a shard's failure says the name is not there (or the
    shard is gone): an unknown-instance ``DatabaseError``, a dead shard,
    or a failed check whose error findings are all unknown-instance."""
    if isinstance(error, (DatabaseError, ShardUnavailable)):
        return True
    return (
        isinstance(error, RemoteExecutionError)
        and error.remote_type == "CheckError"
        and bool(error.codes)
        and set(error.codes) <= _UNKNOWN_INSTANCE
    )


class Router:
    """The ring, the placement overlay and the migration state of one
    sharded deployment, and the routing decisions over them."""

    def __init__(self, shards: int, vnodes: int = DEFAULT_VNODES) -> None:
        self.shards = shards
        self.vnodes = vnodes
        self._ring = build_ring(shards, vnodes)
        self._overlay: dict[str, int] = {}
        self._migration: dict[str, tuple[Move, str]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Where a name lives
    # ------------------------------------------------------------------
    def owner(self, name: str) -> int:
        """The shard ``name`` is *served* by, right now.

        Consulted in order: the per-key migration state (a committed
        cutover owns the name at its destination, anything earlier
        still at its source), the placement overlay, then the ring.
        """
        with self._lock:
            entry = self._migration.get(name)
            if entry is not None:
                move, phase = entry
                return move.dest if phase == "committed" else move.source
            placed = self._overlay.get(name)
            if placed is not None:
                return placed
            return ring_owner(*self._ring, name)

    def route(self, inner: ast.Statement) -> int:
        """The shard a (non-``LIST``, single-shard) statement runs on;
        sourceless statements (``SET ...``) go to shard 0."""
        key = _key(inner)
        if key is None and isinstance(inner, ast.ProductStatement):
            key = inner.left
        return 0 if key is None else self.owner(key)

    def place(self, name: str, shard: int) -> None:
        """Record that ``name`` now lives on ``shard``."""
        with self._lock:
            if ring_owner(*self._ring, name) == shard:
                self._overlay.pop(name, None)
            else:
                self._overlay[name] = shard

    def forget(self, name: str) -> None:
        """``name`` was dropped: it lives nowhere off its ring home."""
        with self._lock:
            self._overlay.pop(name, None)

    def relearn(self, shard: int, names: Iterable[str]) -> None:
        """Replace what the overlay says lives on ``shard`` with ``names``."""
        with self._lock:
            overlay = {n: s for n, s in self._overlay.items() if s != shard}
            for name in names:
                if ring_owner(*self._ring, name) == shard:
                    overlay.pop(name, None)
                else:
                    overlay[name] = shard
            self._overlay = overlay

    def install(self, shards: int, placements: Mapping[str, int]) -> None:
        """Adopt a layout in one step: the ring over ``shards``, an
        overlay of every placement off its home on that ring, and no
        migration.  Placements on shards past ``shards`` are dropped."""
        ring = build_ring(shards, self.vnodes)
        overlay = {
            name: shard for name, shard in placements.items()
            if shard < shards and ring_owner(*ring, name) != shard
        }
        with self._lock:
            self.shards, self._ring = shards, ring
            self._overlay, self._migration = overlay, {}

    @property
    def overlay_size(self) -> int:
        """How many names live off their ring home."""
        return len(self._overlay)

    # ------------------------------------------------------------------
    # Live migration
    # ------------------------------------------------------------------
    def migrate(self, moves: Iterable[Move]) -> None:
        """Begin a migration: every move pending, served at its source."""
        with self._lock:
            self._migration = {move.name: (move, "pending") for move in moves}

    def on_phase(self, name: str, phase: str) -> None:
        """Flip one key's routing exactly at its durable cutover; after
        ``"done"`` the key keeps its destination until :meth:`install`."""
        with self._lock:
            entry = self._migration.get(name)
            if entry is not None:
                self._migration[name] = (
                    entry[0], "committed" if phase == "done" else phase
                )

    def abandon(self) -> None:
        """A failed migration: committed cutovers keep routing to their
        destination (the source copy may be gone); everything earlier
        reverts to plain routing and is writable again."""
        with self._lock:
            self._migration = {
                name: entry for name, entry in self._migration.items()
                if entry[1] == "committed"
            }

    @property
    def migrating(self) -> int:
        """How many keys have live migration state."""
        return len(self._migration)

    def fenced(self, inner: ast.Statement) -> str | None:
        """The first name ``inner`` mutates whose migration copy is in flight.

        A write accepted on the source *after* the copy read it would
        silently vanish at cutover, so ``DROP`` / ``SAVE`` / ``LOAD`` and
        any ``AS``-target derivation on a key in its copy window are
        refused (the caller raises the retryable
        :class:`~repro.errors.RebalanceInProgress`).  The window closes
        at the durable ``move-commit`` — typically milliseconds.
        """
        names = [inner.name] if isinstance(inner, _MUTATORS) else []
        target = getattr(inner, "target", None)
        if isinstance(target, str):
            names.append(target)
        if not names:
            return None
        with self._lock:
            for name in names:
                entry = self._migration.get(name)
                if entry is not None and entry[1] == "copying":
                    return name
        return None

    def retry_shard(
        self, inner: ast.Statement, shard: int, error: BaseException
    ) -> int | None:
        """Where to retry a statement that failed on ``shard``, or ``None``.

        During a migration a read routed to the source can lose the race
        with the cutover (the source copy is deleted right after
        ``move-commit``): the shard then says the name is not there —
        an unknown-instance :class:`DatabaseError`, a failed check whose
        findings are all unknown-instance (``PX201`` / ``PX301``), or
        :class:`ShardUnavailable` when the source died.  If the key is
        now owned by another shard, that shard is the answer; any other
        failure stays a failure.  The caller retries at most once.
        """
        key = _key(inner)
        if key is None or not _name_missing(error):
            return None
        current = self.owner(key)
        return None if current == shard else current
