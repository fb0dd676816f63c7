"""The server under test: one ``python -m repro.server`` process group.

The server (and, on the sharded backend, the shard processes it spawns)
runs in its own session, so the whole tree can be measured through
``/proc`` and killed as one group on every exit path.

Killing is not enough: a shard or a ``multiprocessing`` resource tracker
whose parent has died is an orphan, and until somebody waits for it it
stays in the process table.  The harness therefore makes itself the
reaper of all its descendants (:func:`adopt_orphans`), waits for every
member of a killed server's session, and sweeps once more before it
exits (:func:`stop_descendants`), so that no process it started, dead
or alive, outlives it.
"""

from __future__ import annotations

import ctypes
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from .client import Client

_CLOCK_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")
_PORT_LINE = re.compile(rb"serving on http://[^:]+:(\d+)")

#: Longest wait for the listener line plus a 200 from ``GET /health``.
READY_TIMEOUT_S = 60.0

#: Longest wait for killed processes to leave the process table.
GONE_TIMEOUT_S = 30.0

_PR_SET_PDEATHSIG = 1
_PR_SET_CHILD_SUBREAPER = 36


def _die_with_parent() -> None:
    """In the child, before exec: SIGKILL when the harness dies, however
    it dies.  The shards then see their pipes close and exit."""
    ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)


def adopt_orphans() -> None:
    """Have every orphaned descendant re-parented to this process, not
    to init, so that this process can wait for it."""
    ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1)


def _reap(pid: int) -> None:
    """Collect child ``pid`` if it has ended; a no-op for anything else."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        pass


def _processes() -> dict[int, list[str]]:
    """``{pid: stat fields}`` of every process, zombies included."""
    found = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                found[int(entry)] = fields
    return found


def _wait_gone(remaining, what: str) -> None:
    """Poll ``remaining()`` (which reaps as it looks) until it is empty."""
    deadline = time.monotonic() + GONE_TIMEOUT_S
    while True:
        left = remaining()
        if not left:
            return
        if time.monotonic() > deadline:
            raise RuntimeError(f"{what} still running: pids {left}")
        time.sleep(0.005)


def stop_descendants() -> None:
    """Last thing before the harness exits: stop whatever it still has
    below it and wait until each process has ended and been collected."""
    # The traced run's in-process ``ShardedServer`` starts a resource
    # tracker that otherwise ends only *after* this process has.
    from multiprocessing import resource_tracker

    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()
    me = os.getpid()

    def remaining() -> list[int]:
        processes = _processes()
        below = []
        for pid in processes:
            parent, hops = pid, 0
            while parent in processes and parent != me and hops < 64:
                parent, hops = int(processes[parent][1]), hops + 1
            if parent == me and pid != me:
                below.append(pid)
        for pid in below:
            if processes[pid][0] != "Z":
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            if int(processes[pid][1]) == me:
                _reap(pid)
        return below

    _wait_gone(remaining, "descendants")


class ServerProcess:
    """Spawn, probe, measure and stop one served catalog."""

    def __init__(self, directory: Path, backend: str, source_root: Path) -> None:
        mode = (
            ["--threads-only"] if backend == "single" else ["--shards", "2"]
        )
        env = dict(os.environ, PYTHONPATH=str(source_root),
                   PYTHONUNBUFFERED="1")
        self._process = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--directory",
             str(directory), "--port", "0", "--workers", "2", *mode],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=env, start_new_session=True, preexec_fn=_die_with_parent,
        )
        self.pid = self._process.pid
        self.port = 0
        self._pids: list[int] = []

    def wait_ready(self) -> None:
        """Block until the listener is bound and ``/health`` answers 200."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        assert self._process.stdout is not None
        line = self._process.stdout.readline()
        found = _PORT_LINE.search(line)
        if found is None:
            raise RuntimeError(f"server did not announce a port: {line!r}")
        self.port = int(found.group(1))
        probe = Client("127.0.0.1", self.port)
        while True:
            try:
                status, _ = probe.request("GET", "/health", None, 5.0)
            except OSError:
                status = 0
            if status == 200:
                break
            if time.monotonic() > deadline or self._process.poll() is not None:
                raise RuntimeError("server never became healthy")
            time.sleep(0.02)
        probe.close()
        self._pids = [
            pid for pid, fields in self._session().items() if fields[0] != "Z"
        ]

    # -- /proc accounting over the process tree -------------------------
    def _session(self) -> dict[int, list[str]]:
        """``{pid: stat fields}`` of the server's session, zombies too."""
        return {
            pid: fields for pid, fields in _processes().items()
            if int(fields[3]) == self.pid
        }

    def cpu_seconds(self) -> float:
        """utime + stime summed over the tree found at readiness."""
        ticks = 0
        for pid in self._pids:
            fields = _stat_fields(pid)
            if fields is not None:
                ticks += int(fields[11]) + int(fields[12])
        return ticks * _CLOCK_TICK_S

    def rss_peak_mb(self) -> float:
        """Sum of ``VmHWM`` over the tree."""
        total_kb = 0
        for pid in self._pids:
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            found = re.search(r"VmHWM:\s+(\d+) kB", status)
            if found is not None:
                total_kb += int(found.group(1))
        return total_kb / 1024.0

    # -- shutdown --------------------------------------------------------
    def terminate(self, timeout_s: float = 20.0) -> bool:
        """SIGTERM (drain-then-stop); whether the server exited by itself."""
        if self._process.poll() is None:
            self._process.send_signal(signal.SIGTERM)
            try:
                self._process.wait(timeout_s)
            except subprocess.TimeoutExpired:
                return False
        return True

    def kill(self) -> None:
        """Kill whatever is left of the group and wait until every
        member has ended and has been collected."""
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self._process.wait()
        if self._process.stdout is not None:
            self._process.stdout.close()
        me = os.getpid()

        def remaining() -> list[int]:
            left = []
            for pid, fields in self._session().items():
                mine = int(fields[1]) == me
                if mine:
                    _reap(pid)
                # A zombie under another parent (no `adopt_orphans`) is
                # that parent's to collect; it runs nothing any more.
                if mine or fields[0] != "Z":
                    left.append(pid)
            return left

        _wait_gone(remaining, "server session")


def _stat_fields(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` after the ``(comm)`` field; index 0 = state,
    1 = parent, 3 = session, 11 = utime, 12 = stime (clock ticks)."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return raw.rsplit(")", 1)[1].split()
