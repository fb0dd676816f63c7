"""Concurrent PXQL serving: worker pool, shards, front door.

This package turns the interpreter into a long-running service:

* :class:`~repro.server.server.PXQLServer` — a supervised pool of
  worker threads executing PXQL against one shared thread-safe
  :class:`~repro.storage.database.Database`, behind one
  :class:`queue.Queue` that admission bounds (a full queue is a typed
  :class:`~repro.errors.Overloaded`, never unbounded growth; every
  submission is a :class:`concurrent.futures.Future`), with per-request
  :class:`~repro.resilience.budget.Budget` s, graceful drain-then-stop
  (including on ``SIGTERM``/``SIGINT``), and liveness/readiness probes
  backed by :mod:`repro.obs` metrics;
* :class:`~repro.server.shard.ShardedServer` — N worker *processes*
  (each a ``PXQLServer`` over a shard-local catalog directory) behind a
  consistent-hash router with scatter-gather cross-shard ``PRODUCT``
  and chaos hooks (``kill_shard`` / ``restart_shard``); where a name is
  served — ring, placement overlay — is the plain
  :class:`~repro.server.routing.Router`;
* :mod:`repro.server.layout` — the ring, the ``shards.json`` manifest
  and the offline :func:`~repro.server.layout.reshard` that changes
  the shard count (``python -m repro.server reshard``);
* :mod:`repro.server.wire` — everything that crosses a process or
  socket boundary: :class:`~repro.server.wire.ShardConfig`, the shard
  process, the router's pipe handle, and the one description of a reply
  (errors and results) that both the pipe and HTTP send;
* :class:`~repro.server.http.HttpFrontDoor` — an asyncio HTTP/JSON
  endpoint (stdlib only) over either backend, running one statement
  per ``POST /execute``, translating typed errors to status codes and
  draining on SIGTERM.

The cross-process half of the story (catalog lock file + generation
counter, the token-stamped statement tier) lives in
:mod:`repro.storage.locking` and ``Engine.cache_key``.
``docs/SERVER.md`` ties it together.
"""

from repro.errors import (
    Overloaded,
    RemoteExecutionError,
    ServerError,
    ShardUnavailable,
)
from repro.server.http import HttpFrontDoor
from repro.server.layout import ShardManifest, reshard
from repro.server.server import PXQLServer
from repro.server.shard import ShardConfig, ShardedServer

__all__ = [
    "HttpFrontDoor",
    "Overloaded",
    "PXQLServer",
    "RemoteExecutionError",
    "ServerError",
    "ShardConfig",
    "ShardManifest",
    "ShardUnavailable",
    "ShardedServer",
    "reshard",
]
