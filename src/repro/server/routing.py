"""Where an instance name is served: the router's routing state.

:class:`Router` is a plain object — no process, no pipe — holding the
two things a routing decision reads, under one lock:

* the consistent-hash **ring** (SHA-256 positions, ``vnodes`` per shard);
* the **placement overlay**: derived results (``AS`` targets) live on
  the shard that executed them, which may not be the name's ring home.

:meth:`Router.owner` answers from the overlay, then the ring.  The
shard count of a running deployment never changes: the offline
:func:`~repro.server.layout.reshard` changes it between runs.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Mapping

from repro.pxql import ast
from repro.server.layout import DEFAULT_VNODES, build_ring, ring_owner

#: Wrapper statements that are unwrapped for routing analysis.
_WRAPPERS = (
    ast.ExplainStatement,
    ast.CheckStatement,
    ast.ProfileStatement,
    ast.TimeoutStatement,
)


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


class Router:
    """The ring and the placement overlay of one sharded deployment,
    and the routing decisions over them."""

    def __init__(self, shards: int, vnodes: int = DEFAULT_VNODES) -> None:
        self.shards = shards
        self.vnodes = vnodes
        self._ring = build_ring(shards, vnodes)
        self._overlay: dict[str, int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Where a name lives
    # ------------------------------------------------------------------
    def owner(self, name: str) -> int:
        """The shard ``name`` is served by: its overlay placement, else
        its ring home."""
        with self._lock:
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
        """Adopt a layout in one step: the ring over ``shards`` and an
        overlay of every placement off its home on that ring.
        Placements on shards past ``shards`` are dropped."""
        ring = build_ring(shards, self.vnodes)
        overlay = {
            name: shard for name, shard in placements.items()
            if shard < shards and ring_owner(*ring, name) != shard
        }
        with self._lock:
            self.shards, self._ring = shards, ring
            self._overlay = overlay

    @property
    def overlay_size(self) -> int:
        """How many names live off their ring home."""
        return len(self._overlay)
