"""Cross-process advisory file locking for the catalog directory.

Each catalog mutation is one atomic file step (tmp + fsync +
``os.replace`` for a save, one unlink for a drop, one move for a
quarantine) followed by a journal commit and a generation bump.  That
protects against crashes — but not against two *processes* interleaving
those sequences on the same directory (a ``drop`` between another
process's replace and its commit).
:class:`FileLock` closes that hole with a classic ``fcntl.flock``
advisory lock:

* **exclusive, cross-process** — the kernel guarantees one holder per
  open file description; a second process (or a second ``Database`` in
  the same process) blocks until release or times out with a typed
  :class:`~repro.errors.LockTimeout`;
* **crash-safe** — ``flock`` locks die with their process, so a crashed
  holder can never wedge the catalog; the lock file carries holder
  metadata (pid, host, time) purely for *stale detection*: finding
  leftover metadata on acquisition means the previous holder crashed
  without releasing, which is counted (``lock.stale_reclaimed``) and
  traced rather than silently ignored;
* **reentrant** — one :class:`FileLock` instance may be acquired
  repeatedly by the thread that holds it (``save_all`` nests ``save``);
  other threads of the same process serialize on an internal lock, so
  the in-process and cross-process pictures agree.

On platforms without :mod:`fcntl` the lock degrades to in-process-only
mutual exclusion (still correct for threads; documented, never silent —
:attr:`FileLock.cross_process` says which mode is active).

A *generation file* rides along: :func:`read_generation` /
:func:`bump_generation` maintain a monotonically increasing counter
that mutators bump while holding the lock, so independent ``Database``
instances on one directory can cheaply detect that the catalog changed
under them.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from collections.abc import Callable
from pathlib import Path

from repro.errors import LockError, LockTimeout
from repro.obs.metrics import current_registry
from repro.obs.tracing import current_tracer
from repro.resilience.faults import fault_point

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

#: Name of the advisory lock file inside a catalog directory.
CATALOG_LOCK_NAME = "catalog.lock"

#: Name of the generation counter file inside a catalog directory.
GENERATION_NAME = "catalog.generation"


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process on this host (best effort)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


class FileLock:
    """An exclusive, reentrant, cross-process advisory lock.

    Args:
        path: the lock file (created on first acquisition; its presence
            alone means nothing — only the ``flock`` matters).
        timeout_s: default acquisition timeout.
        poll_s: retry interval while the lock is contended.
        clock: monotonic-seconds source (injectable for tests).
        sleep: the wait function polling uses (injectable for tests).
    """

    def __init__(
        self,
        path: str | Path,
        timeout_s: float = 10.0,
        poll_s: float = 0.01,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.path = Path(path)
        self.timeout_s = timeout_s
        self.poll_s = poll_s
        self._clock = clock
        self._sleep = sleep
        self._thread_lock = threading.RLock()
        self._fd: int | None = None
        self._count = 0
        #: How many acquisitions found a crashed holder's metadata.
        self.stale_reclaims = 0

    @property
    def cross_process(self) -> bool:
        """Whether the OS-level advisory lock is available here."""
        return fcntl is not None

    @property
    def held(self) -> bool:
        """Whether the calling process currently holds the lock."""
        with self._thread_lock:
            return self._count > 0

    # ------------------------------------------------------------------
    def _holder_info(self) -> dict[str, object]:
        return {
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "acquired_at": time.time(),
        }

    def _read_holder(self) -> dict[str, object] | None:
        try:
            text = self.path.read_text(encoding="utf-8").strip()
        except OSError:
            return None
        if not text:
            return None
        try:
            data = json.loads(text)
        except ValueError:
            return None
        return data if isinstance(data, dict) else None

    def _describe_holder(self) -> str | None:
        holder = self._read_holder()
        if holder is None:
            return None
        pid = holder.get("pid")
        alive = _pid_alive(pid) if isinstance(pid, int) else False
        return (
            f"pid {pid} on {holder.get('host', '?')}"
            f" ({'alive' if alive else 'not running'})"
        )

    def _flock_acquire(self, timeout_s: float) -> None:
        """Take the OS lock, polling up to ``timeout_s`` seconds."""
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        deadline = self._clock() + timeout_s
        contended = False
        try:
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except OSError:
                    if self._clock() >= deadline:
                        holder = self._describe_holder()
                        raise LockTimeout(
                            f"could not acquire {self.path} within "
                            f"{timeout_s:g}s"
                            + (f" (held by {holder})" if holder else ""),
                            path=str(self.path),
                            holder=holder,
                        ) from None
                    if not contended:
                        contended = True
                        current_registry().counter(
                            "lock.contended_waits"
                        ).inc()
                    self._sleep(self.poll_s)
            # Locked.  Leftover metadata means the previous holder
            # crashed without releasing (a clean release truncates).
            stale = self._read_holder()
            if stale is not None and stale.get("pid") != os.getpid():
                self.stale_reclaims += 1
                current_registry().counter("lock.stale_reclaimed").inc()
                current_tracer().event(
                    "lock.stale_reclaimed",
                    path=str(self.path),
                    stale_pid=stale.get("pid"),
                )
            os.ftruncate(fd, 0)
            os.lseek(fd, 0, os.SEEK_SET)
            os.write(fd, json.dumps(self._holder_info()).encode("utf-8"))
        except BaseException:
            try:
                os.close(fd)
            except OSError:
                pass
            raise
        self._fd = fd

    # ------------------------------------------------------------------
    def acquire(self, timeout_s: float | None = None) -> "FileLock":
        """Take the lock (reentrant for the holding thread).

        Raises :class:`LockTimeout` when the lock stays contended past
        the timeout — with a description of the current holder when the
        lock file's metadata allows one.
        """
        timeout = self.timeout_s if timeout_s is None else timeout_s
        fault_point("lock.db.file")
        if not self._thread_lock.acquire(timeout=timeout):
            raise LockTimeout(
                f"could not acquire {self.path} within {timeout:g}s "
                f"(held by another thread of this process)",
                path=str(self.path),
            )
        if self._count > 0:
            self._count += 1
            return self
        if fcntl is not None:
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._flock_acquire(timeout)
            except BaseException:
                self._thread_lock.release()
                raise
        self._count = 1
        current_registry().counter("lock.acquires").inc()
        return self

    def release(self) -> None:
        """Release one acquisition (the OS lock drops at the outermost)."""
        with self._thread_lock:
            if self._count == 0:
                raise LockError(f"release of unheld lock {self.path}")
            self._count -= 1
            if self._count == 0 and self._fd is not None:
                fd, self._fd = self._fd, None
                try:
                    os.ftruncate(fd, 0)
                    fcntl.flock(fd, fcntl.LOCK_UN)
                finally:
                    os.close(fd)
        self._thread_lock.release()

    def __enter__(self) -> "FileLock":
        return self.acquire()

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.release()

    def __repr__(self) -> str:
        state = f"held x{self._count}" if self._count else "free"
        return f"FileLock({str(self.path)!r}, {state})"


# ----------------------------------------------------------------------
# Per-path lock sharing
# ----------------------------------------------------------------------
_SHARED_LOCKS: dict[Path, FileLock] = {}
_SHARED_LOCKS_GUARD = threading.Lock()


def shared_lock(path: str | Path, timeout_s: float = 10.0) -> FileLock:
    """The process-wide :class:`FileLock` for ``path`` (one per path).

    ``flock`` locks taken through *independent* open file descriptions
    conflict even within one process: two :class:`FileLock` instances
    on the same path would contend at the OS level, so two ``Database``
    objects (or a shard worker pool and its router) sharing a catalog
    directory in one process would serialize through the kernel with
    full timeout semantics instead of the reentrant fast path.  This
    factory returns one canonical lock per resolved path, so every
    in-process user of a catalog directory shares the same reentrant
    lock, and the cross-process ``flock`` below it stays one holder per
    process — which is exactly the advisory-lock contract.

    ``timeout_s`` only applies when the lock is first created; later
    callers share the existing instance (and can still pass explicit
    timeouts to :meth:`FileLock.acquire`).
    """
    resolved = Path(path).resolve()
    with _SHARED_LOCKS_GUARD:
        lock = _SHARED_LOCKS.get(resolved)
        if lock is None:
            lock = FileLock(resolved, timeout_s=timeout_s)
            _SHARED_LOCKS[resolved] = lock
        return lock


# ----------------------------------------------------------------------
# Generation counter
# ----------------------------------------------------------------------
def read_generation(path: str | Path) -> int:
    """The catalog generation recorded at ``path`` (0 when absent)."""
    # Read on every statement-tier hit: one small read, no Path, no text.
    try:
        descriptor = os.open(path, os.O_RDONLY)
        try:
            data = os.read(descriptor, 64)
        finally:
            os.close(descriptor)
        return int(data)
    except (OSError, ValueError):
        return 0


def bump_generation(path: str | Path) -> int:
    """Increment the generation file atomically; returns the new value.

    Must be called while holding the catalog's :class:`FileLock` — the
    read-modify-write is only race-free under the lock.  The write
    itself is tmp + fsync + ``os.replace``, so readers never see a torn
    counter even across a crash.
    """
    fault_point("db.generation.bump")
    target = Path(path)
    generation = read_generation(target) + 1
    tmp = target.with_name(target.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(f"{generation}\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return generation
