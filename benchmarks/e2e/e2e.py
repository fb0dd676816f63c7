"""One untraced end-to-end run of one workload.

Phases: set-up, then :data:`PAIRS` pairs of one closed-loop and one
open-loop segment, then SIGTERM, the durability check (write workloads)
and the oracle check of the sampled replies.  The extra set-ups that
steady ``setup_s`` run between the pairs, so both the set-ups and the
segments are spread over the whole run.

Why segments.  On the reference box everything stops now and then for
50 to 350 ms, both clients at once: one window per mode gave 431 to 749
requests per second for the same code on the same seed.  So every
bounded metric is the median over the closed segments of the segment's
own rate or percentile: a stall spoils the segments it falls in, and the
median ignores them while they are the minority.

What the median cannot ignore is the drift that lasts minutes: within
one hour the same code read 96 to 185 requests per second on one
workload.  :func:`calibrate`, a fixed pure-Python loop, is therefore
timed around every segment and set-up, while clients and server are
idle.  It reads about 6 ms, or 9 to 10 ms when the host gives the
virtual CPU less, and its mean over a run tracks the run's throughput
(fitted exponent 0.8 to 0.9 over 32 runs).  So every time is divided,
and every rate multiplied, by ``slowdown`` = mean reading /
:data:`REFERENCE_CALIB_MS`: the values are those of a machine whose loop
always takes the reference time.  That halved the run-to-run spread.
``harness.slowdown`` is reported, so every raw value can be had back;
memory and the ``harness`` block are not scaled.  ``cli.py`` pins the
whole run to one CPU for the same reason; ``README.md`` has the
measurements behind all three choices.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from repro.core.instance import ProbabilisticInstance
from repro.storage.database import Database

from .client import Client, ClientLog, Sample, run_closed, run_open
from .corpus import build_catalog
from .serverproc import ServerProcess
from .statements import Stmt, oracle_value, reply_matches
from .workloads import CLIENTS, Workload

#: Closed/open segment pairs per run; each loop gets half of a pair.
PAIRS = 8

#: What :func:`calibrate` reads on the reference box left to itself.
REFERENCE_CALIB_MS = 6.0

#: Every window (all segments of one mode) must complete this many requests.
MIN_WINDOW_REQUESTS = 200

#: Every this-many-th checkable reply per client is verified.
VERIFY_EVERY = 20

#: Repository root (``benchmarks/e2e/e2e.py`` → two levels up).
REPO_ROOT = Path(__file__).resolve().parents[2]
SOURCE_ROOT = REPO_ROOT / "src"

#: Catalogs live here (inside the checkout) and are removed after a run.
SCRATCH_PARENT = REPO_ROOT / ".bench_tmp"


class BenchmarkError(RuntimeError):
    """The run cannot produce a valid result (too few requests, ...)."""


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (``0 <= q <= 1``) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise BenchmarkError("percentile of an empty sample")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def calibrate() -> float:
    """Milliseconds a fixed pure-Python loop takes right now.

    The mean over a run, against :data:`REFERENCE_CALIB_MS`, is the
    run's ``slowdown`` (see the module docstring).
    """
    start = time.perf_counter()
    total = 0
    for value in range(150_000):
        total += value & 7
    return (time.perf_counter() - start) * 1000.0


class SetupTimes(NamedTuple):
    generate_s: float
    save_s: float
    ready_s: float
    warmup_s: float


@dataclass
class Setup:
    """One completed set-up: a warm server over a saved catalog."""

    directory: Path
    server: ServerProcess
    catalog: dict[str, ProbabilisticInstance]
    streams: object
    clients: list[Client]
    warmup_logs: list[ClientLog]
    times: SetupTimes


@dataclass
class Segment:
    """One stretch of one load loop."""

    mode: str               # "closed" | "open"
    start: float
    seconds: float
    logs: list[ClientLog]
    cpu_s: float            # server process tree, utime + stime

    @property
    def samples(self) -> list[Sample]:
        return [sample for log in self.logs for sample in log.samples]

    @property
    def ok(self) -> list[Sample]:
        return [sample for sample in self.samples if sample.status == 200]


@dataclass
class RunResult:
    workload: str
    seed: int
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    harness: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def _in_threads(jobs: Sequence[Callable[[], ClientLog]]) -> list[ClientLog]:
    """Run one job per client thread; re-raise the first failure."""
    results: list[ClientLog | BaseException | None] = [None] * len(jobs)

    def call(index: int) -> None:
        try:
            results[index] = jobs[index]()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            results[index] = exc

    threads = [
        threading.Thread(target=call, args=(i,), name=f"client-{i}")
        for i in range(len(jobs))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return [r for r in results if isinstance(r, ClientLog)]


def set_up(workload: Workload, seed: int, tiny: bool) -> Setup:
    """Generate, save, spawn until healthy, warm up."""
    SCRATCH_PARENT.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix="e2e-", dir=SCRATCH_PARENT))
    server: ServerProcess | None = None
    try:
        start = time.perf_counter()
        catalog = build_catalog(workload.tiny if tiny else workload.shape, seed)
        generated = time.perf_counter()
        database = Database(directory / "catalog")
        for name, instance in catalog.items():
            database.register(name, instance)
            database.save(name)
        saved = time.perf_counter()
        server = ServerProcess(
            directory / "catalog", workload.backend, SOURCE_ROOT
        )
        server.wait_ready()
        ready = time.perf_counter()
        # Statement generation is the harness's work, not the system's:
        # it is kept out of every set-up timing.
        streams = workload.streams(catalog, seed)
        warmups = [
            streams.warmup(c, 8 if tiny else workload.warmup)
            for c in range(CLIENTS)
        ]
        clients = [Client("127.0.0.1", server.port) for _ in range(CLIENTS)]
        warm_start = time.perf_counter()
        logs = _in_threads([
            lambda c=c: _run_list(clients[c], warmups[c]) for c in range(CLIENTS)
        ])
        warmed = time.perf_counter()
    except BaseException:
        if server is not None:
            server.kill()
        shutil.rmtree(directory, ignore_errors=True)
        raise
    return Setup(
        directory, server, catalog, streams, clients, logs,
        SetupTimes(generated - start, saved - generated, ready - saved,
                   warmed - warm_start),
    )


def _run_list(client: Client, statements: Sequence[Stmt]) -> ClientLog:
    log = ClientLog(client, VERIFY_EVERY)
    for stmt in statements:
        log.send(stmt)
    return log


def tear_down(setup: Setup) -> None:
    for client in setup.clients:
        client.close()
    setup.server.kill()
    shutil.rmtree(setup.directory, ignore_errors=True)
    try:
        SCRATCH_PARENT.rmdir()
    except OSError:
        pass  # another run still has a catalog here


def _open_schedules(
    setup: Setup, workload: Workload, seed: int, seconds: float
) -> list[list[list[tuple[float, Stmt]]]]:
    """``[segment][client]`` Poisson arrivals at ``rate_rps / CLIENTS``
    per client, as ``(offset from the segment's start, statement)``."""
    arrivals = [
        random.Random(f"{seed}/arrivals/{client}") for client in range(CLIENTS)
    ]
    streams = [setup.streams.stream("open", c) for c in range(CLIENTS)]
    segments = []
    for _ in range(PAIRS):
        per_client = []
        for rng, stream in zip(arrivals, streams):
            offset, schedule = 0.0, []
            while True:
                offset += rng.expovariate(workload.rate_rps / CLIENTS)
                if offset >= seconds:
                    break
                schedule.append((offset, next(stream)))
            per_client.append(schedule)
        segments.append(per_client)
    return segments


def _segment(
    setup: Setup, mode: str, seconds: float,
    job: Callable[[int, float], ClientLog],
) -> Segment:
    """Run ``job(client, start)`` on every client thread, with the
    server's CPU clock read on both sides."""
    cpu = setup.server.cpu_seconds()
    start = time.perf_counter()
    logs = _in_threads([
        lambda c=c: job(c, start) for c in range(CLIENTS)
    ])
    return Segment(
        mode, start, seconds, logs, setup.server.cpu_seconds() - cpu
    )


def _measure(
    setup: Setup, workload: Workload, seed: int, seconds: float,
    setups: int, tiny: bool,
) -> tuple[list[Segment], list[SetupTimes], list[float]]:
    """The segment pairs, the times of every set-up made (``setup``'s
    first), and the calibration readings taken around every segment and
    set-up.

    The ``setups - 1`` extra set-ups are timed and torn down at once, at
    evenly spaced points between the pairs.
    """
    length = seconds / (2 * PAIRS)
    closed = [setup.streams.stream("closed", c) for c in range(CLIENTS)]
    # Materialised before any closed segment runs: the cold streams of a
    # client share one no-repeats set, and this keeps every stream a
    # function of the seed alone.
    schedules = _open_schedules(setup, workload, seed, length)
    extra_before = {PAIRS * n // setups for n in range(1, setups)}
    segments: list[Segment] = []
    history = [setup.times]
    readings = [calibrate()]
    for pair in range(PAIRS):
        if pair in extra_before:
            extra = set_up(workload, seed, tiny)
            tear_down(extra)
            history.append(extra.times)
            readings.append(calibrate())
        segments.append(_segment(
            setup, "closed", length,
            lambda c, start: run_closed(
                setup.clients[c], closed[c], start + length, VERIFY_EVERY
            ),
        ))
        readings.append(calibrate())
        segments.append(_segment(
            setup, "open", length,
            lambda c, start, pair=pair: run_open(
                setup.clients[c], schedules[pair][c], start, VERIFY_EVERY
            ),
        ))
        readings.append(calibrate())
    return segments, history, readings


def _check_durability(setup: Setup, logs: Sequence[ClientLog]) -> list[str]:
    """After SIGTERM: reopen the shards, fsck, find every surviving SAVE."""
    saved: set[str] = set()
    # A name is saved and dropped by one client within one phase, and
    # each log is in send order, so the order of the logs does not matter.
    for log in logs:
        for sample in log.samples:
            if sample.status != 200:
                continue
            if sample.stmt.kind == "SAVE":
                saved.add(sample.stmt.target)
            elif sample.stmt.kind == "DROP":
                saved.discard(sample.stmt.target)
    root = setup.directory / "catalog"
    problems: list[str] = []
    fsck = subprocess.run(
        [sys.executable, "-m", "repro.storage", "fsck", "--shards", str(root)],
        env=dict(os.environ, PYTHONPATH=str(SOURCE_ROOT)),
        capture_output=True, text=True, timeout=60, check=False,
    )
    if fsck.returncode != 0:
        problems.append(f"fsck --shards exited {fsck.returncode}: "
                        f"{fsck.stdout.strip()[-300:]}")
    shards = [Database(path) for path in sorted(root.glob("shard-*"))]
    for name in sorted(saved):
        holders = [db for db in shards if name in db.names()]
        if len(holders) != 1:
            problems.append(f"saved {name!r} is on {len(holders)} shards")
            continue
        try:
            # get() re-reads the file and verifies it against its sidecar.
            holders[0].get(name)
        except Exception as exc:  # noqa: BLE001 - any failure is a miss
            problems.append(f"saved {name!r} unreadable: {exc}")
            continue
        if holders[0].sidecar_checksum(name) is None:
            problems.append(f"saved {name!r} has no checksum sidecar")
    return problems


def _check_replies(
    setup: Setup, logs: Sequence[ClientLog]
) -> tuple[int, list[str]]:
    """Compare every kept reply with the direct answer; ``(checked, bad)``."""
    answers: dict[str, object] = {}
    checked, problems = 0, []
    for log in logs:
        for sample in log.samples:
            if sample.reply is None or sample.status != 200:
                continue
            stmt = sample.stmt
            if stmt.text not in answers:
                answers[stmt.text] = oracle_value(stmt, setup.catalog)
            checked += 1
            result = sample.reply.get("result")
            if not isinstance(result, dict) or not reply_matches(
                stmt, result, answers[stmt.text]
            ):
                problems.append(
                    f"oracle mismatch on {stmt.text!r}: "
                    f"expected {answers[stmt.text]!r}, got {result!r}"[:300]
                )
    return checked, problems


def _median_segment(
    segments: Sequence[Segment], measure: Callable[[Segment], float]
) -> float:
    return statistics.median(measure(segment) for segment in segments)


def _closed_ms(samples: Sequence[Sample]) -> list[float]:
    return [(s.done - s.sent) * 1000.0 for s in samples]


def _open_ms(samples: Sequence[Sample]) -> list[float]:
    return [(s.done - s.due) * 1000.0 for s in samples]


def run_workload(
    workload: Workload, seed: int, seconds: float, *,
    setups: int = 3, tiny: bool = False,
    min_requests: int = MIN_WINDOW_REQUESTS,
) -> RunResult:
    """Set up, measure the segment pairs, verify; see the module docstring."""
    result = RunResult(workload.name, seed)
    setup = set_up(workload, seed, tiny)
    try:
        segments, history, readings = _measure(
            setup, workload, seed, seconds, setups, tiny
        )
        rss_mb = setup.server.rss_peak_mb()
        exited = setup.server.terminate()
        all_logs = [
            *setup.warmup_logs, *(log for s in segments for log in s.logs)
        ]
        if not exited:
            result.failures.append("server ignored SIGTERM for 20 s")
        if workload.family == "derive":
            result.failures += _check_durability(setup, all_logs)
        checked, mismatches = _check_replies(setup, all_logs)
        result.failures += mismatches
    finally:
        tear_down(setup)

    windows = {
        mode: [s for segment in segments if segment.mode == mode
               for s in segment.samples]
        for mode in ("closed", "open")
    }
    for mode, samples in windows.items():
        if len(samples) < min_requests:
            raise BenchmarkError(
                f"{workload.name}: the {mode} window completed "
                f"{len(samples)} requests (< {min_requests}); "
                "lengthen --seconds or shrink the workload"
            )
    warm = [s for log in setup.warmup_logs for s in log.samples]
    measured = [*windows["closed"], *windows["open"]]
    for sample in (*warm, *measured):
        if sample.status != 200:
            result.failures.append(
                f"status {sample.status} on {sample.stmt.text!r}: "
                f"{(sample.reply or {}).get('error')}"[:300]
            )
    closed = [segment for segment in segments if segment.mode == "closed"]
    # A short open segment at a low rate may have had no arrival at all.
    opened = [s for s in segments if s.mode == "open" and s.ok]
    if not opened or not all(segment.ok for segment in closed):
        raise BenchmarkError(f"{workload.name}: a segment had no OK reply")
    connects = sum(log.connects for s in segments for log in s.logs)

    result.attempted = len(measured) + len(warm)
    result.failed = len(result.failures)
    slowdown = statistics.fmean(readings) / REFERENCE_CALIB_MS

    def latency(part: Sequence[Segment], of, q: float) -> float:
        """Median over ``part`` of the segment's ``q``-quantile, raw ms."""
        return _median_segment(part, lambda seg: percentile(of(seg.ok), q))

    def setup_part(index: int) -> tuple[float, str]:
        return statistics.median(times[index] for times in history), "s"

    result.metrics = {
        "throughput_rps": (_median_segment(closed, lambda segment: sum(
            s.done <= segment.start + segment.seconds for s in segment.ok
        ) / segment.seconds) * slowdown, "1/s"),
        "latency_p50_ms": (latency(closed, _closed_ms, 0.50) / slowdown, "ms"),
        "latency_p95_ms": (latency(closed, _closed_ms, 0.95) / slowdown, "ms"),
        "cpu_ms_per_req": (_median_segment(
            closed, lambda seg: seg.cpu_s * 1000.0 / len(seg.samples)
        ) / slowdown, "ms"),
        "rss_peak_mb": (rss_mb, "MB"),
        "setup_s": (
            statistics.median(map(sum, history)) / slowdown, "s"),
    }
    result.harness = {
        # Over the whole window: the stalls the median segment leaves out.
        "client.latency_p99_ms": (percentile(_closed_ms(
            [s for s in windows["closed"] if s.status == 200]), 0.99), "ms"),
        # The open loop, raw.  Not end-to-end metrics: between requests
        # the virtual CPU halts, every wake-up waits for the host, and
        # the run-to-run spread (up to 31 % and 64 %) is wider than any
        # bound the contract allows (README.md).
        "client.open_p50_ms": (latency(opened, _open_ms, 0.50), "ms"),
        "client.open_p95_ms": (latency(opened, _open_ms, 0.95), "ms"),
        "client.open_late_p95_ms": (percentile(
            [(s.sent - s.due) * 1000.0 for s in windows["open"]], 0.95), "ms"),
        "client.connects_per_req": (connects / len(measured), "count"),
        "client.replies_checked": (float(checked), "count"),
        "harness.slowdown": (slowdown, "ratio"),
        "harness.calib_ms": (slowdown * REFERENCE_CALIB_MS, "ms"),
        "setup.generate_s": setup_part(0),
        "setup.save_s": setup_part(1),
        "setup.ready_s": setup_part(2),
        "setup.warmup_s": setup_part(3),
    }
    return result
