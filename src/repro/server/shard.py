"""Sharded multi-process PXQL serving: the router's lifecycle and dispatch.

The single-process :class:`~repro.server.server.PXQLServer` is correct
but GIL-bound.  :class:`ShardedServer` scales it across *processes*:
it spawns N shard processes (``spawn`` start method — no
fork-plus-threads hazards, and closing the child pipe end makes shard
death visible as EOF) and serves PXQL across them.  The router is split
at its three decisions:

* :mod:`repro.server.wire` — what crosses a process or socket boundary:
  :class:`ShardConfig`, the shard process, the router's handle on each
  pipe, and the one description of a reply (shared with HTTP);
* :mod:`repro.server.routing` — where a name is served: the
  :class:`~repro.server.routing.Router` (ring and placement overlay), a
  plain object with no process behind it;
* this module — lifecycle (start, stop, kill / restart, the watchdog),
  submit dispatch, the broadcast
  ``LIST``, the cross-shard ``PRODUCT`` scatter-gather (fetch both
  serialized operands in parallel, combine with
  :func:`~repro.algebra.product.cartesian_product` in the router, store
  the product on the target name's shard) and the probes.

A dead shard answers every in-flight and future request with
:class:`~repro.errors.ShardUnavailable` until
:meth:`ShardedServer.restart_shard` brings it back.  The shard count is
fixed while serving; :func:`~repro.server.layout.reshard` changes it
offline.

**Cache coherence.**  Each shard's statement tier is in memory and keys
on a per-name ``(version, epoch)`` token (see ``Engine.cache_key``): a
write by another process moves the epoch of the names it touched, so
only entries scanning those names stop matching, and a restarted shard
starts cold — no router-coordinated invalidation protocol is needed.

See ``docs/SERVER.md`` ("Sharding and the async front door").
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import threading
import time
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import cast

from repro.errors import (
    PXMLError,
    ServerError,
    ShardConfigError,
    ShardUnavailable,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.pxql import ast
from repro.pxql.interpreter import Result
from repro.pxql.parser import parse_memo
from repro.resilience.faults import FaultSpec
from repro.resilience.retry import RetryPolicy
from repro.server.admission import PendingResult
from repro.server.layout import (
    LEGACY_JOURNAL_NAME,
    MANIFEST_NAME,
    ShardManifest,
    legacy_migration_target,
    read_manifest,
    reshard_command,
    write_manifest,
)
from repro.server.routing import Router, unwrap
from repro.server.wire import ShardConfig, _ShardHandle
from repro.storage.database import Database

__all__ = ["MANIFEST_NAME", "ShardConfig", "ShardedServer"]

#: Default watchdog backoff: 5 restart attempts per outage episode,
#: 100 ms doubling to a 5 s ceiling, deterministic (chaos tests replay).
DEFAULT_WATCHDOG_BACKOFF = RetryPolicy(
    attempts=5, base_delay_s=0.1, max_delay_s=5.0, jitter=0.0
)


class ShardedServer:
    """N shard processes behind a consistent-hash router.

    Args:
        directory: the root catalog directory; shard ``i`` owns the
            ``shard-i/`` subdirectory (a full ``Database`` directory
            with its own lock and generation counter).
        shards: shard-process count.
        workers_per_shard: worker-thread count inside each shard.
        queue_size: each shard's admission bound.
        poll_s: each shard pool's idle-poll interval.
        default_deadline_s: default per-request deadline applied by the
            shards (``None`` = unbudgeted).
        fault_specs: fault specs each shard installs in its own process
            (chaos testing; the router's ambient injector cannot cross
            the ``spawn`` boundary).
        fault_seed: base fault seed (shard ``i`` uses ``seed + i``).
        vnodes: virtual nodes per shard on the hash ring.
        metrics: the router's registry (own instance if omitted).
        tracer: the router's span collector (own instance if omitted).
        watchdog_interval_s: poll interval of the self-healing watchdog
            thread that auto-restarts EOF-dead shard processes
            (``None`` = watchdog off; chaos tests drive restarts by
            hand).
        watchdog_backoff: capped exponential backoff between restart
            attempts of one outage episode
            (:data:`DEFAULT_WATCHDOG_BACKOFF` if omitted); after
            ``attempts`` failed restarts the watchdog gives up on that
            shard until it is seen alive again
            (``router.watchdog_gave_up``).

    **Routing.**  Statements are routed by :attr:`router` to the shard
    serving their source instance; ``LIST`` is a broadcast-and-merge; a
    cross-shard ``PRODUCT`` is a scatter-gather run by the router.
    Derived results (``AS`` targets, fresh names) are created on the
    shard that executed the statement, which may not be the name's hash
    home — the router's *placement overlay* records these, rebuilt from
    the shards' actual catalogs on start/restart, so later statements
    find them.
    """

    def __init__(
        self,
        directory: str | Path,
        shards: int = 2,
        workers_per_shard: int = 2,
        queue_size: int = 16,
        poll_s: float = 0.005,
        default_deadline_s: float | None = None,
        fault_specs: Sequence[FaultSpec] = (),
        fault_seed: int = 0,
        vnodes: int = 64,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        name: str = "pxql-shards",
        watchdog_interval_s: float | None = None,
        watchdog_backoff: RetryPolicy | None = None,
    ) -> None:
        if shards < 1:
            raise ServerError("a sharded server needs at least one shard")
        self.directory = Path(directory)
        self.name = name
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        #: Every shard's recipe but its index and directory.
        self._template = ShardConfig(
            index=0, directory="", workers=workers_per_shard,
            queue_size=queue_size, poll_s=poll_s,
            default_deadline_s=default_deadline_s,
            fault_specs=tuple(fault_specs), fault_seed=fault_seed,
        )
        self.router = Router(shards, vnodes)
        self._handles: list[_ShardHandle] = [
            _ShardHandle(dataclasses.replace(
                self._template, index=index,
                directory=str(self.directory / f"shard-{index}"),
            ))
            for index in range(shards)
        ]
        self._layout_epoch = 0
        self._results = itertools.count(1)  # fresh product names
        #: Routing needs only the AST, and the same texts keep coming.
        self._parse = parse_memo()
        self._pool = ThreadPoolExecutor(
            max_workers=max(2, shards), thread_name_prefix=f"{name}-router"
        )
        self._started = False
        self._stopping = False
        self._watchdog_interval_s = watchdog_interval_s
        self._watchdog_policy = (
            watchdog_backoff if watchdog_backoff is not None
            else DEFAULT_WATCHDOG_BACKOFF
        )
        self._watchdog_stop = threading.Event()
        self._watchdog: threading.Thread | None = None
        self._watchdog_state: dict[int, dict[str, float]] = {}
        #: Wait bound for the internal fetch/store legs of scatter-gather.
        self.scatter_timeout_s = 30.0

    @property
    def shards(self) -> int:
        """The shard count of the layout being served."""
        return self.router.shards

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShardedServer":
        """Spawn every shard process and rebuild the placement overlay.

        Raises :class:`~repro.errors.ShardConfigError`, naming the
        ``reshard`` command that resolves it, when the directory's
        ``shards.json`` records a different shard count, carries the
        marker of an interrupted reshard, or a torn live migration of an
        older version left a ``rebalance.journal``.
        """
        if self._started:
            raise ServerError("sharded server already started")
        self.directory.mkdir(parents=True, exist_ok=True)
        self._check_manifest()
        for handle in self._handles:
            handle.start()
        self._started = True
        self._stopping = False
        self.router.install(self.shards, self._served())
        self._adopt_root_catalog()
        if self._watchdog_interval_s is not None:
            self._watchdog_stop.clear()
            self._watchdog = threading.Thread(
                target=self._watchdog_loop,
                name=f"{self.name}-watchdog",
                daemon=True,
            )
            self._watchdog.start()
        self.metrics.gauge("router.shards").set(float(self.shards))
        self.metrics.gauge("router.layout_epoch").set(float(self._layout_epoch))
        return self

    def _check_manifest(self) -> None:
        """Write ``shards.json`` on first init; refuse a layout this
        server cannot serve as configured.

        Never a silent rehash: names were placed over the recorded
        ring.  The recorded vnode count and layout epoch are adopted.
        """
        legacy = legacy_migration_target(self.directory, self.shards)
        if legacy is not None:
            raise ShardConfigError(
                f"directory {self.directory} holds the {LEGACY_JOURNAL_NAME} "
                "of a live migration an older version left unfinished; finish "
                f"it offline with `{reshard_command(self.directory, legacy)}`",
                configured=self.shards,
            )
        manifest = read_manifest(self.directory)  # raises if untrusted
        if manifest is None:
            write_manifest(
                self.directory,
                ShardManifest(shards=self.shards, vnodes=self.router.vnodes),
            )
            return
        if manifest.resharding_to is not None:
            raise ShardConfigError(
                f"directory {self.directory} was left mid-reshard to "
                f"{manifest.resharding_to} shard(s); finish it with `"
                f"{reshard_command(self.directory, manifest.resharding_to)}`",
                configured=self.shards,
                recorded=manifest.shards,
            )
        if manifest.shards != self.shards:
            raise ShardConfigError(
                f"directory {self.directory} was sharded with "
                f"{manifest.shards} shard(s) but this server is "
                f"configured for {self.shards}; serve it with the recorded "
                "count, or change the count first with "
                f"`{reshard_command(self.directory, self.shards)}`",
                configured=self.shards,
                recorded=manifest.shards,
            )
        if manifest.vnodes != self.router.vnodes:
            self.router = Router(self.shards, manifest.vnodes)
        self._layout_epoch = manifest.layout_epoch

    def __enter__(self) -> "ShardedServer":
        return self.start()

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.stop(drain=exc_type is None)

    def _broadcast(
        self, op: str, handles: Sequence[_ShardHandle] | None = None,
        **args: object,
    ) -> list[tuple[int, PendingResult]]:
        """Send ``op`` to every live shard of ``handles`` (default: all)
        at once; ``(shard, future)`` for each that took it."""
        sent = []
        for handle in list(self._handles if handles is None else handles):
            if not handle.alive:
                continue
            try:
                sent.append((handle.index, handle.request(op, **args)))
            except ShardUnavailable:
                continue
        return sent

    def drain(self, timeout_s: float = 30.0) -> bool:
        """Drain every live shard; whether all finished in time."""
        drained = True
        for _, future in self._broadcast("drain", timeout_s=timeout_s):
            try:
                drained = bool(future.result(timeout_s + 5.0)) and drained
            except PXMLError:
                drained = False
        return drained

    def stop(self, drain: bool = True, timeout_s: float = 30.0) -> bool:
        """Stop every shard (drain first by default) and reap processes."""
        self._stopping = True
        watchdog = self._watchdog
        if watchdog is not None:
            self._watchdog_stop.set()
            watchdog.join(timeout=5.0)
            self._watchdog = None
        self._broadcast("stop", drain=drain, timeout_s=timeout_s)
        clean = True
        deadline = time.monotonic() + timeout_s
        for handle in self._handles:
            remaining = max(0.5, deadline - time.monotonic())
            clean = handle.join(remaining) and clean
            handle.close()
        self._pool.shutdown(wait=False)
        self.metrics.gauge("router.shards").set(0.0)
        return clean

    def kill_shard(self, index: int) -> None:
        """Hard-kill one shard process (chaos hook).

        In-flight requests to it resolve with
        :class:`~repro.errors.ShardUnavailable`; later submissions that
        route to it raise the same until :meth:`restart_shard`.
        """
        self._check_index(index)
        self._handles[index].kill()
        self.metrics.counter("router.shard_kills").inc()
        self.tracer.event("router.shard_killed", shard=index)

    def restart_shard(self, index: int) -> None:
        """Start a fresh process for one shard over its directory.

        The replacement re-opens the same catalog directory with an empty
        statement tier: the first touch of each statement recomputes.
        """
        self._check_index(index)
        handle = self._handles[index]
        handle.kill()
        handle.close()
        replacement = _ShardHandle(handle.config)
        replacement.start()
        self._handles[index] = replacement
        self.router.relearn(index, self._served([replacement]))
        self.metrics.counter("router.shard_restarts").inc()
        self.tracer.event("router.shard_restarted", shard=index)

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.shards:
            raise ServerError(f"no shard {index} (have {self.shards})")

    def _served(
        self, handles: Sequence[_ShardHandle] | None = None
    ) -> dict[str, int]:
        """``name -> shard`` for every name the live ``handles`` (default:
        all) actually serve; a shard that cannot answer is skipped."""
        served: dict[str, int] = {}
        for index, future in self._broadcast("names", handles):
            try:
                served.update(dict.fromkeys(
                    cast("list[str]", future.result(10.0)), index
                ))
            except PXMLError:
                continue
        return served

    # ------------------------------------------------------------------
    # Self-healing watchdog
    # ------------------------------------------------------------------
    def _watchdog_loop(self) -> None:
        """Auto-restart EOF-dead shards with capped exponential backoff.

        One outage episode per shard: each failed (or immediately
        re-died) restart consumes an attempt and backs off per
        ``watchdog_backoff``; after the last attempt the watchdog gives
        up on that shard (``router.watchdog_gave_up``) until it is
        observed alive again — a manual :meth:`restart_shard` or a
        recovered process resets the episode.
        """
        interval = self._watchdog_interval_s
        assert interval is not None
        rng = random.Random(self._template.fault_seed)
        while not self._watchdog_stop.wait(interval):
            if not self._started or self._stopping:
                continue
            for index, handle in enumerate(self._handles):
                state = self._watchdog_state.setdefault(
                    index, {"attempts": 0.0, "next": 0.0, "gave_up": 0.0}
                )
                if handle.alive:
                    state["attempts"] = 0.0
                    state["gave_up"] = 0.0
                    continue
                if state["gave_up"]:
                    continue
                if state["attempts"] >= self._watchdog_policy.attempts:
                    state["gave_up"] = 1.0
                    self.metrics.counter("router.watchdog_gave_up").inc()
                    self.tracer.event("router.watchdog_gave_up", shard=index)
                    continue
                now = time.monotonic()
                if now < state["next"]:
                    continue
                attempt = int(state["attempts"])
                state["attempts"] += 1.0
                state["next"] = now + self._watchdog_policy.delay_for(
                    attempt, rng
                )
                if self._stopping:
                    continue
                try:
                    self.restart_shard(index)
                except PXMLError:
                    continue  # next pass retries within the episode
                self.metrics.counter("router.watchdog_restarts").inc()
                self.tracer.event(
                    "router.watchdog_restarted", shard=index,
                    attempt=attempt + 1,
                )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def owner(self, name: str) -> int:
        """The shard an instance name is *served* by, right now (see
        :meth:`Router.owner <repro.server.routing.Router.owner>`)."""
        return self.router.owner(name)

    def _adopt_root_catalog(self) -> None:
        """Import loose instances from the root directory onto their
        home shards (first start over a pre-sharding catalog).

        Pointing ``--shards N`` at a directory previously served by a
        single-process server must not silently serve an empty catalog:
        instances sitting at the root are placed (and saved) on their
        hash-home shards.  Names some shard already serves are skipped,
        so a restart never overwrites newer shard-local versions; the
        root files are left in place as the pre-migration originals.
        """
        from repro.io.json_codec import dumps

        try:
            root = Database(self.directory)
            loose = root.names()
        except PXMLError:
            return
        if not loose:
            return
        served = self._served()
        adopted = 0
        for name in loose:
            if name in served:
                continue
            try:
                self.register_instance(name, dumps(root.get(name)))
            except PXMLError:
                continue  # a corrupt/racing root file never blocks startup
            adopted += 1
        if adopted:
            self.metrics.counter("router.adopted_instances").inc(adopted)
            self.tracer.event("router.adopted_instances", count=adopted)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _failed(self, error: PXMLError) -> PendingResult:
        """A future already resolved with ``error`` (counted as failed)."""
        future = PendingResult()
        future.set_error(error)
        self.metrics.counter("router.failed").inc()
        return future

    def submit(
        self, text: str, deadline_s: float | None = None
    ) -> PendingResult:
        """Route one statement; returns the future the router resolves.

        Mirrors :meth:`PXQLServer.submit`: admission problems raise
        :class:`~repro.errors.Overloaded` /
        :class:`~repro.errors.ShardUnavailable` synchronously, execution
        errors travel through the returned future as typed exceptions.
        """
        if not self._started:
            raise ServerError("sharded server not started (call start())")
        self.metrics.counter("router.submitted").inc()
        try:
            statement, _spans = self._parse(text)
        except PXMLError as exc:
            # Parse errors are execution errors, not admission errors:
            # surface them through the future like the thread server does.
            return self._failed(exc)
        inner = unwrap(statement)
        if isinstance(inner, ast.ProductStatement):
            left_owner = self.owner(inner.left)
            right_owner = self.owner(inner.right)
            if left_owner != right_owner:
                if not isinstance(
                    statement, (ast.ProductStatement, ast.TimeoutStatement)
                ):
                    return self._failed(ServerError(
                        "cross-shard PRODUCT cannot run under "
                        f"{type(statement).__name__}: both operands must "
                        "live on one shard for wrapped statements"
                    ))
                return self._submit_scatter_product(
                    inner, left_owner, right_owner, deadline_s
                )
        if isinstance(inner, ast.ListStatement):
            return self._submit_broadcast_list()
        shard = self.router.route(inner)
        return self._submit_to_shard(shard, text, deadline_s, inner)

    def execute(
        self,
        text: str,
        deadline_s: float | None = None,
        timeout_s: float | None = None,
    ) -> Result:
        """Submit and wait: the blocking convenience form of :meth:`submit`."""
        value = self.submit(text, deadline_s=deadline_s).result(timeout_s)
        if not isinstance(value, Result):
            raise ServerError(
                "internal type confusion: router resolved the request "
                f"with a non-Result {type(value).__name__!r}"
            )
        return value

    def _submit_to_shard(
        self,
        shard: int,
        text: str,
        deadline_s: float | None,
        inner: ast.Statement,
    ) -> PendingResult:
        outer = PendingResult()
        remote = self._handles[shard].request(
            "execute", text=text, deadline_s=deadline_s
        )  # raises ShardUnavailable when dead

        def _resolved(pending: PendingResult) -> None:
            error = pending.error(0.0)
            if error is None:
                result = cast(Result, pending.result(0.0))
                if result.instance_name is not None:
                    self.router.place(result.instance_name, shard)
                if isinstance(inner, ast.DropStatement):
                    self.router.forget(inner.name)
                self.metrics.counter("router.completed").inc()
                outer.set_result(result)
                return
            self.metrics.counter("router.failed").inc()
            outer.set_error(error)

        remote.add_done_callback(_resolved)
        return outer

    def _submit_broadcast_list(self) -> PendingResult:
        """``LIST`` fans to every live shard; the union comes back."""
        outer = PendingResult()
        futures = self._broadcast("names")

        def _gather() -> None:
            names: set[str] = set()
            try:
                for _, future in futures:
                    names.update(
                        cast("list[str]", future.result(self.scatter_timeout_s))
                    )
            except Exception as exc:  # noqa: BLE001 - typed on arrival
                self.metrics.counter("router.failed").inc()
                outer.set_error(exc)
                return
            merged = sorted(names)
            self.metrics.counter("router.completed").inc()
            outer.set_result(
                Result(merged, None, "\n".join(merged) if merged else "(empty)")
            )

        self._pool.submit(_gather)
        return outer

    # ------------------------------------------------------------------
    # Scatter-gather product
    # ------------------------------------------------------------------
    def _submit_scatter_product(
        self,
        stmt: ast.ProductStatement,
        left_owner: int,
        right_owner: int,
        deadline_s: float | None,
    ) -> PendingResult:
        """Cross-shard ``PRODUCT``: fetch both operands in parallel,
        combine in the router, store on the target name's home shard."""
        outer = PendingResult()
        self.metrics.counter("router.scatter_products").inc()
        timeout = deadline_s if deadline_s is not None else self.scatter_timeout_s

        def _run() -> None:
            from repro.algebra.product import cartesian_product
            from repro.io.json_codec import dumps, loads

            try:
                with self.tracer.span(
                    "router.scatter_product",
                    left=stmt.left, right=stmt.right,
                    left_shard=left_owner, right_shard=right_owner,
                ):
                    # Scatter: both fetches in flight concurrently.
                    fetches = [
                        self._handles[shard].request("fetch", name=name)
                        for shard, name in (
                            (left_owner, stmt.left), (right_owner, stmt.right)
                        )
                    ]
                    left, right = (
                        loads(cast(str, f.result(timeout))) for f in fetches
                    )
                    product = cartesian_product(left, right, stmt.new_root)
                    target = (
                        stmt.target if stmt.target is not None
                        else f"_router_result{next(self._results)}"
                    )
                    target_owner = self.owner(target)
                    self._call(
                        target_owner, "store", timeout,
                        name=target, payload=dumps(product),
                    )
                    self.router.place(target, target_owner)
            except Exception as exc:  # noqa: BLE001 - typed transport
                self.metrics.counter("router.failed").inc()
                outer.set_error(
                    exc if isinstance(exc, PXMLError)
                    else ServerError(f"scatter-gather product failed: {exc}")
                )
                return
            self.metrics.counter("router.completed").inc()
            text = (
                f"product of {stmt.left} and {stmt.right} -> {target} "
                f"({len(product)} objects)"
            )
            outer.set_result(Result(text, target, text))

        self._pool.submit(_run)
        return outer

    # ------------------------------------------------------------------
    # Catalog access
    # ------------------------------------------------------------------
    def _call(
        self, shard: int, op: str, wait_s: float | None = None,
        **args: object,
    ) -> object:
        """One synchronous RPC (default wait: :attr:`scatter_timeout_s`)."""
        wait = self.scatter_timeout_s if wait_s is None else wait_s
        return self._handles[shard].call(op, wait, **args)

    def register_instance(
        self, name: str, payload: str, save: bool = True
    ) -> int:
        """Place a serialized instance on its home shard; returns the shard.

        ``payload`` is the JSON text of
        :func:`repro.io.json_codec.dumps` — the router never holds live
        instances for routine placement, only their wire form.
        """
        shard = self.owner(name)
        self._call(shard, "store", name=name, payload=payload, save=save)
        self.router.place(name, shard)
        return shard

    def fetch_instance(self, name: str) -> str:
        """The serialized JSON of ``name`` from its owning shard."""
        return cast(str, self._call(self.owner(name), "fetch", name=name))

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------
    def alive(self) -> bool:
        """Liveness: started and every shard process is running."""
        return self._started and all(h.alive for h in self._handles)

    def ready(self) -> bool:
        """Readiness: at least every shard is up (degrading routers are
        not ready — a request may route to the dead shard)."""
        return self.alive()

    def health(self) -> dict[str, object]:
        """Router counters plus each live shard's own health probe."""
        shard_health: list[dict[str, object]] = []
        for handle in self._handles:
            if not handle.alive:
                shard_health.append(
                    {"shard": handle.index, "state": "dead", "alive": False}
                )
                continue
            try:
                health = handle.call("health", 5.0)
            except PXMLError as exc:
                shard_health.append(
                    {"shard": handle.index, "state": "unreachable",
                     "alive": False, "error": str(exc)}
                )
                continue
            shard_health.append(cast("dict[str, object]", health))
        return {
            "alive": self.alive(),
            "ready": self.ready(),
            "shards": self.shards,
            "shards_alive": sum(1 for h in self._handles if h.alive),
            "overlay_size": self.router.overlay_size,
            "layout_epoch": self._layout_epoch,
            "submitted": self.metrics.value("router.submitted"),
            "completed": self.metrics.value("router.completed"),
            "failed": self.metrics.value("router.failed"),
            "scatter_products": self.metrics.value("router.scatter_products"),
            "shard_health": shard_health,
        }

    def metrics_snapshot(self) -> dict[str, dict[str, object]]:
        """Router metrics with each shard's counters mirrored in
        (``shard0.server.completed``, ...)."""
        for index, future in self._broadcast("metrics"):
            try:
                snapshot = future.result(5.0)
            except PXMLError:
                continue
            self.metrics.import_snapshot(
                f"shard{index}", cast("dict[str, dict[str, object]]", snapshot)
            )
        return self.metrics.as_dict()

    def shard_directories(self) -> list[Path]:
        """Each shard's catalog directory (for audits and tests)."""
        return [Path(h.config.directory) for h in self._handles]

    def __repr__(self) -> str:
        live = sum(1 for h in self._handles if h.alive)
        return (
            f"ShardedServer({self.name!r}, shards={live}/{self.shards}, "
            f"dir={str(self.directory)!r})"
        )
