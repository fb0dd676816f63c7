"""Deterministic fault injection for chaos testing.

Production code is sprinkled with named *hook points* —
``fault_point("codec.write.replace")`` — that are free no-ops until a
:class:`FaultInjector` is installed (a context manager over a
:class:`ContextVar`, like the ambient tracer).  An installed injector
matches each visited site against its :class:`FaultSpec` s and fires
four kinds of fault, all driven by one seeded RNG so a chaos run is
exactly reproducible from its seed:

* ``"error"`` — raise (default :class:`~repro.errors.FaultError`; pass
  ``exception=OSError`` to simulate I/O failures the retry layer
  handles);
* ``"corrupt"`` — mangle the payload flowing through the hook point
  (one byte is replaced with NUL, which no JSON document survives);
* ``"slow"`` — sleep ``delay_s`` (injectable sleep), for deadline and
  slow-path testing;
* ``"barrier"`` — a *thread-scheduling* fault: the visiting thread
  rendezvouses with up to ``parties - 1`` other threads at the same
  site (bounded by ``delay_s`` seconds, default 50 ms), then all are
  released simultaneously.  Placed at a lock boundary this piles
  threads up and stampedes the lock — the classic race amplifier for
  concurrency chaos suites.
* ``"crash"`` — ``SIGKILL`` the current process on the spot: no atexit
  handlers, no buffers flushed, no locks released.  The honest
  simulation of a power cut for crash-consistency testing; only
  meaningful in a sacrificial subprocess (see
  :mod:`repro.resilience.crashsweep`, which kills a catalog-op cycle at
  every registered storage fault point in turn and asserts recovery).

Hook points in the tree (see ``docs/RESILIENCE.md``):

======================  ====================================================
site                    where
======================  ====================================================
``codec.read.open``     before an instance file is opened
``codec.read``          the file text just read (corruptable payload)
``codec.write.payload`` the serialized text about to be written (payload)
``codec.write.tmp``     after the tmp file is written+fsynced, before
                        ``os.replace`` — an ``error`` here is a crash that
                        never published the new bytes
``codec.write.replace`` after the data file is published, before the
                        checksum sidecar — the torn-sidecar crash window
``codec.write.sidecar`` after the checksum sidecar is published, before
                        the generation bump / journal commit
``journal.begin``       before a journal begin record is appended
``journal.begin.synced`` after the begin record is durable, before the
                        operation's first file step
``journal.commit``      before a journal commit record is appended
``db.generation.bump``  before the generation counter is rewritten
``db.drop.unlink``      before the catalog unlinks an instance file
``db.drop.sidecar``     after the data file is unlinked, before its
                        sidecar is
``db.quarantine.move``  before a corrupt data file is moved to quarantine
``db.quarantine.sidecar`` after the data file moved, before its sidecar
``pxql.cache.statements.get`` before a statement-tier lookup
``pxql.cache.statements.put`` before a statement-tier insert
``lock.pxql.cache.statements`` the statement tier's internal lock boundary
``lock.db.mutate``      before the catalog takes its in-memory lock for a
                        mutation (register / drop / save / touch)
``lock.db.file``        before the catalog's cross-process file lock is
                        acquired
``lock.breaker``        before the circuit breaker's state lock
======================  ====================================================

The ``lock.*`` family are *scheduling* sites: ``barrier`` and ``slow``
faults there perturb thread interleavings at lock boundaries without
changing semantics, while ``error`` faults still work for testing the
callers' typed-error paths.

The injector itself is thread-safe: spec bookkeeping, the event log and
the seeded RNG live under one internal lock, while sleeps and barrier
waits happen outside it (a delayed thread never blocks the injector).
Note the ambient installation is a :class:`ContextVar`: a thread spawned
*after* ``__enter__`` does not inherit it automatically — run thread
targets via ``contextvars.copy_context().run(...)`` (the PXQL server
does this for every request it dispatches).
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time
from collections.abc import Callable, Iterator
from contextvars import ContextVar
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from types import TracebackType
from typing import TypeVar

from repro.errors import FaultError

PayloadT = TypeVar("PayloadT", str, bytes, None)

#: Default rendezvous window of a ``barrier`` fault (seconds).
DEFAULT_BARRIER_TIMEOUT_S = 0.05

#: The canonical fault points of the storage layer's multi-file
#: operation sequences, in the order a save/drop/quarantine visits
#: them.  The crash sweep (:mod:`repro.resilience.crashsweep`) SIGKILLs
#: a catalog-op cycle at every one of these — at every *visit* of every
#: one — and asserts that reopen + journal replay recovers.  New
#: storage-sequence fault points must be added here to be swept.
STORAGE_FAULT_POINTS: tuple[str, ...] = (
    "journal.begin",
    "journal.begin.synced",
    "codec.write.tmp",
    "codec.write.replace",
    "codec.write.sidecar",
    "db.generation.bump",
    "journal.commit",
    "db.drop.unlink",
    "db.drop.sidecar",
    "db.quarantine.move",
    "db.quarantine.sidecar",
)

#: The fault points of an offline reshard
#: (:func:`repro.server.layout.reshard`), in the order it visits them:
#: after the ``resharding_to`` marker is durable, after each moved name's save on its new home,
#: after the matching drop on its old shard, and after the committed
#: manifest.  The reshard crash sweep (``python -m
#: repro.resilience.crashsweep --mode reshard``) SIGKILLs a reshard at
#: every visit of every one of these, and of every storage fault point
#: the reshard itself visits, and asserts a rerun converges.
RESHARD_FAULT_POINTS: tuple[str, ...] = (
    "reshard.marked",
    "reshard.saved",
    "reshard.dropped",
    "reshard.committed",
)


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject at matching hook points.

    Args:
        site: a hook-point name or ``fnmatch`` pattern
            (``"pxql.cache.statements.*"``).
        kind: ``"error"``, ``"corrupt"``, ``"slow"``, ``"barrier"``, or
            ``"crash"`` (SIGKILL the process — sacrificial subprocesses
            only).
        nth: fire starting with the nth matching visit (1-based).
        times: how many visits fire in total (``None`` = every one from
            ``nth`` on).
        probability: fire each visit with this seeded probability
            instead of the ``nth``/``times`` schedule.
        exception: exception type for ``"error"`` faults
            (default :class:`FaultError`).
        delay_s: sleep duration for ``"slow"`` faults; rendezvous
            timeout for ``"barrier"`` faults (0 = the 50 ms default).
        parties: thread count a ``"barrier"`` fault waits for.
    """

    site: str
    kind: str = "error"
    nth: int = 1
    times: int | None = 1
    probability: float | None = None
    exception: type[Exception] | None = None
    delay_s: float = 0.0
    parties: int = 2

    def __post_init__(self) -> None:
        if self.kind not in ("error", "corrupt", "slow", "barrier", "crash"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.nth < 1:
            raise ValueError("nth is 1-based")
        if self.parties < 2:
            raise ValueError("a barrier needs at least 2 parties")


@dataclass(frozen=True)
class FaultEvent:
    """A fault that fired: which spec, where, on which visit."""

    site: str
    kind: str
    visit: int


@dataclass
class _SpecState:
    spec: FaultSpec
    seen: int = 0
    fired: int = 0
    barrier: threading.Barrier | None = field(default=None, repr=False)


def _corrupt(payload: str | bytes, rng: random.Random) -> str | bytes:
    """Replace one position with NUL — fatal to JSON and checksums alike."""
    if not payload:
        return "\x00" if isinstance(payload, str) else b"\x00"
    index = rng.randrange(len(payload))
    if isinstance(payload, str):
        return payload[:index] + "\x00" + payload[index + 1:]
    return payload[:index] + b"\x00" + payload[index + 1:]


class FaultInjector:
    """Installs fault specs as the ambient injector for a ``with`` region.

    One injector owns one seeded RNG (shared by probability draws and
    corruption positions) and a log of fired :class:`FaultEvent` s for
    assertions.  Nesting installs shadow the outer injector.  All
    bookkeeping is lock-protected, so one injector may serve many
    threads (delays and barrier waits happen outside the lock).
    """

    def __init__(
        self,
        *specs: FaultSpec,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._states = [_SpecState(spec) for spec in specs]
        self._rng = random.Random(seed)
        self._sleep = sleep
        self._lock = threading.Lock()
        self.events: list[FaultEvent] = []
        # ContextVar tokens are only valid in the context that set them,
        # so one injector entered by several threads keeps one token
        # stack per thread.
        self._tokens = threading.local()

    def fired(self, site: str | None = None) -> int:
        """How many faults fired (optionally only at ``site`` patterns)."""
        with self._lock:
            events = list(self.events)
        if site is None:
            return len(events)
        return sum(1 for e in events if fnmatchcase(e.site, site))

    def visit_counts(self) -> dict[str, int]:
        """Hook-point visits seen per spec site (profiling aid).

        Install specs with ``times=0`` (never fire) to use the injector
        as a pure visit counter — the crash sweep profiles a clean run
        this way to learn how many kills each site needs.
        """
        with self._lock:
            return {state.spec.site: state.seen for state in self._states}

    # ------------------------------------------------------------------
    def _wait_at_barrier(self, state: _SpecState) -> None:
        """Rendezvous at a spec's barrier (created lazily, self-healing).

        A timed-out (broken) barrier is reset for subsequent visits —
        a missed rendezvous degrades to a short stall, never an error.
        """
        with self._lock:
            barrier = state.barrier
            if barrier is None or barrier.broken:
                timeout = (
                    state.spec.delay_s
                    if state.spec.delay_s > 0
                    else DEFAULT_BARRIER_TIMEOUT_S
                )
                barrier = threading.Barrier(state.spec.parties, timeout=timeout)
                state.barrier = barrier
        try:
            barrier.wait()
        except threading.BrokenBarrierError:
            pass

    def visit(self, site: str, payload: PayloadT) -> PayloadT:
        """Consult every matching spec; used via :func:`fault_point`."""
        delayed: list[_SpecState] = []
        with self._lock:
            for state in self._states:
                spec = state.spec
                if not fnmatchcase(site, spec.site):
                    continue
                state.seen += 1
                if spec.probability is not None:
                    fire = self._rng.random() < spec.probability
                else:
                    fire = state.seen >= spec.nth and (
                        spec.times is None or state.fired < spec.times
                    )
                if not fire:
                    continue
                state.fired += 1
                self.events.append(FaultEvent(site, spec.kind, state.seen))
                if spec.kind == "crash":
                    # A power cut, not an exception: no unwinding, no
                    # flushing, no lock release.  SIGKILL cannot be
                    # caught, so nothing below this line runs.
                    os.kill(os.getpid(), signal.SIGKILL)
                if spec.kind == "error":
                    exception = spec.exception if spec.exception else FaultError
                    raise exception(
                        f"injected fault at {site} (visit {state.seen})"
                    )
                if spec.kind == "corrupt":
                    if payload is not None:
                        payload = _corrupt(payload, self._rng)  # type: ignore[assignment]
                else:  # "slow" or "barrier" — performed outside the lock
                    delayed.append(state)
        for state in delayed:
            if state.spec.kind == "barrier":
                self._wait_at_barrier(state)
            else:
                self._sleep(state.spec.delay_s)
        return payload

    # ------------------------------------------------------------------
    def __enter__(self) -> "FaultInjector":
        stack = getattr(self._tokens, "stack", None)
        if stack is None:
            stack = []
            self._tokens.stack = stack
        stack.append(_ACTIVE_INJECTOR.set(self))
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        stack = getattr(self._tokens, "stack", None)
        if stack:
            _ACTIVE_INJECTOR.reset(stack.pop())


_ACTIVE_INJECTOR: ContextVar[FaultInjector | None] = ContextVar(
    "repro_resilience_injector", default=None
)


def current_injector() -> FaultInjector | None:
    """The installed injector, if any."""
    return _ACTIVE_INJECTOR.get()


def fault_point(site: str, payload: PayloadT = None) -> PayloadT:
    """A named hook point: a no-op unless a :class:`FaultInjector` is
    installed, in which case matching faults raise, corrupt the returned
    payload, stall the thread, or rendezvous it with other threads.
    Callers that pass a payload must use the return value in place of it.
    """
    injector = _ACTIVE_INJECTOR.get()
    if injector is None:
        return payload
    return injector.visit(site, payload)


def iter_specs(injector: FaultInjector) -> Iterator[FaultSpec]:
    """The injector's specs (for reporting/debugging)."""
    for state in injector._states:
        yield state.spec
