"""The traced run: one statement sample replayed through every layer.

The same seeded sample goes, in the same order, through each public
entry point from the bottom of the stack to the top, every rung over its
own freshly saved catalog and its own cold caches:

====  ==============================================================
R0    direct ``repro.queries`` / ``repro.algebra`` call (in memory)
R1    ``Engine.execute_statement`` (``Database.save``/``drop`` for
      the write statements, which have no plan form)
R2    ``Interpreter.execute``
R3    ``PXQLServer.submit(...).result()``
R4    ``ShardedServer.submit(...).result()`` (sharded workloads only)
R5    ``POST /execute`` to an in-process ``HttpFrontDoor`` over R3/R4
====  ==============================================================

Layers are measured from outside, by timing these calls.  Every
statement climbs the whole ladder before the next one starts, so each
layer is a *paired* difference: a layer's ``self_ms`` is what its rung
took minus what the rung below took for the same statement, averaged
over the sample, and its ``share`` is ``self_ms`` over the mean of R5.

Means, not medians: the streams mix cheap reads with expensive writes,
a median would describe one kind only, and means add up.  For the
layers above the engine (``pxql`` and the three ``server.*``) the
smallest and largest 5 % of the paired differences are trimmed first: a
statement that meets a 50 ms stall under one rung and not under the next
would otherwise swamp a layer that costs 0.1 ms.
``engine``, ``algebra``, ``storage`` and ``io`` are untrimmed, because
there the expensive statements *are* the signal.  A negative ``self_ms``
means the rung above was not measurably slower; it is reported as
measured.

Counts are deltas of the top rung's ``MetricsRegistry``
(``ShardedServer.metrics_snapshot()`` on the sharded backend) around the
sample.  Samples are kept in memory and reported once at the end.
"""

from __future__ import annotations

import asyncio
import gc
import pickle
import re
import shutil
import statistics
import tempfile
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Mapping, Sequence
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

from repro.check.dataguide import DataGuideCache
from repro.check.query import check_statement
from repro.core.instance import ProbabilisticInstance
from repro.engine.executor import Engine
from repro.index.columnar import ColumnarInstance, match_path_indexed
from repro.io.json_codec import dumps, loads
from repro.pxql import ast
from repro.pxql.interpreter import Interpreter
from repro.pxql.parser import parse, parse_spanned
from repro.semistructured.paths import PathExpression, match_path
from repro.server.http import HttpFrontDoor
from repro.server.server import PXQLServer
from repro.server.shard import ShardedServer
from repro.storage.database import Database

from .client import Client
from .corpus import build_catalog
from .e2e import SCRATCH_PARENT
from .statements import Stmt, direct_answer
from .workloads import Workload

#: Statements replayed through every rung, after one client's warm-up.
SAMPLE = 200

_SHARD_MIRROR = re.compile(r"(shard\d+)\.(.+)")
_WRITES = ("SAVE", "DROP")

Catalog = Mapping[str, ProbabilisticInstance]


@dataclass
class LadderResult:
    metrics: dict[str, tuple[float, str]]
    top_median_ms: float
    failures: list[str] = field(default_factory=list)


def _ms(start: float) -> float:
    return (time.perf_counter() - start) * 1000.0


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _paired_self_ms(rung: Sequence[float], lower: Sequence[float]) -> float:
    """Mean of ``rung[i] - lower[i]`` with 5 % trimmed at each end."""
    differences = sorted(a - b for a, b in zip(rung, lower))
    cut = len(differences) // 20
    return _mean(differences[cut:len(differences) - cut])


def _saved_catalog(directory: Path, catalog: Catalog) -> Database:
    """Save ``catalog`` under ``directory``; a *fresh* handle on it, so
    instances load lazily on first touch exactly as in a started server."""
    database = Database(directory)
    for name, instance in catalog.items():
        database.register(name, instance)
        database.save(name)
    return Database(directory)


# ----------------------------------------------------------------------
# Rungs: each is an ``execute(stmt)`` over its own catalog and caches
# ----------------------------------------------------------------------
Rung = Callable[[Stmt], object]


def _rung_algebra(catalog: Catalog) -> Rung:
    instances = dict(catalog)

    def execute(stmt: Stmt) -> None:
        if stmt.kind == "DROP":
            instances.pop(stmt.target, None)
        if stmt.kind in _WRITES:
            return
        answer = direct_answer(stmt, instances[stmt.derived or stmt.source])
        if stmt.kind == "PROJECT":
            instances[stmt.target] = answer

    return execute


def _rung_engine(database: Database) -> Rung:
    engine = Engine(database)

    def execute(stmt: Stmt) -> None:
        statement = parse(stmt.text)
        if isinstance(statement, ast.ProjectStatement):
            plan = engine.plan_statement(statement)
            versions = engine.versions_of(plan)
            value = engine.execute_plan(plan).value
            database.register(statement.target, value, replace=True)
            engine.record_lineage(statement.target, plan, versions)
        elif isinstance(statement, ast.SaveStatement):
            database.save(statement.name)
        elif isinstance(statement, ast.DropStatement):
            database.drop(statement.name)
        else:
            engine.execute_statement(statement)

    return execute


@dataclass
class _EngineProbes:
    """Timed beside R1, on R1's catalog, just before R1 runs a statement.

    Planning and certification run on a second engine with its own
    caches, so probing a statement never warms the rung's engine.
    """

    database: Database
    parse_ms: list[float] = field(default_factory=list)
    check_ms: list[float] = field(default_factory=list)
    plan_ms: list[float] = field(default_factory=list)
    certify_ms: list[float] = field(default_factory=list)
    encode_ms: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._engine = Engine(self.database, disk_cache=False)
        self._guides = DataGuideCache()

    def probe(self, stmt: Stmt) -> None:
        start = time.perf_counter()
        statement, spans = parse_spanned(stmt.text)
        self.parse_ms.append(_ms(start))
        start = time.perf_counter()
        check_statement(statement, self.database, spans=spans,
                        guides=self._guides, subject=stmt.text)
        self.check_ms.append(_ms(start))
        start = time.perf_counter()
        plan = self._engine.plan_statement(statement)
        if plan is not None:
            prepared, _ = self._engine.prepare(plan)
            self.plan_ms.append(_ms(start))
            start = time.perf_counter()
            self._engine.certify(prepared)
            self.certify_ms.append(_ms(start))
        if stmt.kind == "SAVE":
            start = time.perf_counter()
            dumps(self.database.get(stmt.target))
            self.encode_ms.append(_ms(start))


def _rung_interpreter(database: Database) -> Rung:
    interpreter = Interpreter(database)
    return lambda stmt: interpreter.execute(stmt.text)


def _backend(
    stack: ExitStack, directory: Path, catalog: Catalog, sharded: bool
):
    """A started backend with one worker per pool, stopped by ``stack``.

    The replay is sequential, so a second worker would never run in
    parallel; it would only make it a matter of chance which worker's
    private engine caches a statement meets, and that chance differs
    from rung to rung.  With one worker every rung sees the same hits.
    """
    database = _saved_catalog(directory, catalog)
    if sharded:
        # Started over the saved root: the router adopts the instances
        # onto their home shards, as `python -m repro.server` does.
        backend = ShardedServer(directory, shards=2, workers_per_shard=1)
    else:
        backend = PXQLServer(database=database, workers=1)
    stack.callback(backend.stop, drain=False, timeout_s=10.0)
    return backend.start()


def _rung_backend(backend) -> Rung:
    return lambda stmt: backend.submit(stmt.text).result(120.0)


def _pipe_bytes(result) -> int:
    """Pickled size of the message a shard would send for ``result``."""
    return len(pickle.dumps({"id": 0, "ok": True, "value": {
        "value": result.value, "instance_name": result.instance_name,
        "text": result.text,
    }}))


class _Door:
    """An ``HttpFrontDoor`` on its own event-loop thread."""

    def __init__(self, backend) -> None:
        self._loop = asyncio.new_event_loop()
        self._door = HttpFrontDoor(backend, port=0)
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._serve, name="ladder-door")
        self._thread.start()
        self._ready.wait(30.0)
        self.port = self._door.bound_port

    def _serve(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self._door.start())
        self._ready.set()
        self._loop.run_until_complete(self._door.serve_forever())
        self._loop.close()

    def stop(self) -> None:
        """Drain and stop the backend, close the listener, join."""
        asyncio.run_coroutine_threadsafe(
            self._door.shutdown(10.0), self._loop
        ).result(60.0)
        self._thread.join(30.0)


def _rung_http(stack: ExitStack, backend, failures: list[str]) -> Rung:
    door = _Door(backend)
    stack.callback(door.stop)
    client = Client("127.0.0.1", door.port)
    stack.callback(client.close)

    def execute(stmt: Stmt) -> None:
        status, body = client.execute(stmt.text)
        if status != 200:
            failures.append(
                f"ladder R5: status {status} on {stmt.text!r}: "
                f"{body.get('error')}"[:300]
            )

    return execute


def _flat_counters(backend) -> dict[str, float]:
    """Counter values (histograms as ``.count``/``.sum``), with every
    shard's mirrored ``shardN.*`` gauges folded into the plain names."""
    snapshot = getattr(backend, "metrics_snapshot", None)
    raw = snapshot() if callable(snapshot) else backend.metrics.as_dict()
    flat: dict[str, float] = {}
    for name, payload in raw.items():
        if payload.get("kind") == "histogram":
            flat[f"{name}.count"] = float(payload["count"])
            flat[f"{name}.sum"] = float(payload["sum"])
        else:
            flat[name] = float(payload.get("value", 0.0))
    folded: dict[str, float] = defaultdict(float)
    for name, value in flat.items():
        mirrored = _SHARD_MIRROR.fullmatch(name)
        if mirrored is None:
            folded[name] += value
            continue
        shard, key = mirrored.groups()
        if key.endswith(".mean"):  # an imported histogram: mean x count
            base = key[: -len(".mean")]
            folded[f"{base}.sum"] += value * flat.get(
                f"{shard}.{base}.count", 0.0
            )
        else:
            folded[key] += value
    return folded


def _disk_per_user_byte(directory: Path) -> float:
    """Bytes under ``directory`` per byte of instance payload in it."""
    files = [path for path in directory.rglob("*") if path.is_file()]
    user = sum(p.stat().st_size for p in files if p.name.endswith(".pxml.json"))
    return sum(p.stat().st_size for p in files) / user if user else 0.0


# ----------------------------------------------------------------------
# Direct probes of the layers no rung isolates
# ----------------------------------------------------------------------
def _probe_index(catalog: Catalog, sample) -> dict[str, float]:
    names = sorted({stmt.source for stmt in sample})[:4]
    columns, build = {}, []
    for name in names:
        start = time.perf_counter()
        columns[name] = ColumnarInstance.from_instance(catalog[name])
        build.append(_ms(start))
    indexed, walked = [], []
    for stmt in sample:
        if stmt.path is None or stmt.source not in columns or stmt.via:
            continue
        path = PathExpression.parse(stmt.path)
        start = time.perf_counter()
        match_path_indexed(columns[stmt.source], path, memo=False)
        indexed.append(_ms(start))
        graph = catalog[stmt.source].weak.graph()
        start = time.perf_counter()
        match_path(graph, path)
        walked.append(_ms(start))
    return {"build": _mean(build), "match": _mean(indexed),
            "walk": _mean(walked)}


def _probe_storage(directory: Path, catalog: Catalog) -> dict[str, float]:
    """Save, reopen, load and drop up to four of the base instances."""
    names = sorted(catalog)[:4]
    database = Database(directory)
    timings: dict[str, list[float]] = defaultdict(list)
    payload_bytes = objects = 0
    for name in names:
        database.register(name, catalog[name])
        start = time.perf_counter()
        database.save(name)
        timings["save"].append(_ms(start))
        start = time.perf_counter()
        payload = dumps(catalog[name])
        timings["encode"].append(_ms(start))
        start = time.perf_counter()
        loads(payload)
        timings["decode"].append(_ms(start))
        payload_bytes += len(payload.encode("utf-8"))
        objects += len(catalog[name])
    start = time.perf_counter()
    reopened = Database(directory)   # includes the journal replay
    timings["open"].append(_ms(start))
    for name in names:
        start = time.perf_counter()
        reopened.get(name)
        timings["load"].append(_ms(start))
        start = time.perf_counter()
        reopened.drop(name)
        timings["drop"].append(_ms(start))
    result = {key: _mean(values) for key, values in timings.items()}
    result["bytes_per_object"] = payload_bytes / objects
    return result


# ----------------------------------------------------------------------
def run_ladder(workload: Workload, seed: int, *, tiny: bool = False) -> LadderResult:
    """Replay one seeded sample through every rung; the per-layer ledger."""
    catalog = build_catalog(workload.tiny if tiny else workload.shape, seed)
    streams = workload.streams(catalog, seed)
    warm = streams.warmup(0, 8 if tiny else workload.warmup)
    stream = streams.stream("ladder", 0)
    sample = [next(stream) for _ in range(24 if tiny else SAMPLE)]
    sharded = workload.backend == "sharded"
    failures: list[str] = []
    SCRATCH_PARENT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="ladder-", dir=SCRATCH_PARENT))
    rungs: dict[str, Rung] = {}
    try:
        # Every rung is built first and each statement then goes up the
        # whole ladder before the next one starts, so machine drift and
        # collector pauses fall on all rungs alike.
        with ExitStack() as stack:
            rungs["r0"] = _rung_algebra(catalog)
            engine_db = _saved_catalog(scratch / "r1", catalog)
            probes = _EngineProbes(engine_db)
            rungs["r1"] = _rung_engine(engine_db)
            rungs["r2"] = _rung_interpreter(
                _saved_catalog(scratch / "r2", catalog)
            )
            rungs["r3"] = _rung_backend(
                _backend(stack, scratch / "r3", catalog, False)
            )
            if sharded:
                rungs["r4"] = _rung_backend(
                    _backend(stack, scratch / "r4", catalog, True)
                )
            top = _backend(stack, scratch / "r5", catalog, sharded)
            rungs["r5"] = _rung_http(stack, top, failures)

            for stmt in warm:
                for execute in rungs.values():
                    execute(stmt)
            before = _flat_counters(top)
            times: dict[str, list[float]] = {name: [] for name in rungs}
            pipe_bytes: list[int] = []
            # All rungs' catalogs are alive at once; frozen, they stay
            # out of the collector's way, as one server's catalog would.
            gc.collect()
            gc.freeze()
            try:
                for stmt in sample:
                    probes.probe(stmt)
                    for name, execute in rungs.items():
                        start = time.perf_counter()
                        result = execute(stmt)
                        times[name].append(_ms(start))
                        if sharded and name == "r3":
                            pipe_bytes.append(_pipe_bytes(result))
            finally:
                gc.unfreeze()
            after = _flat_counters(top)
        disk_ratio = _disk_per_user_byte(scratch / "r5")
        index = _probe_index(catalog, sample)
        storage = _probe_storage(scratch / "storage", catalog)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH_PARENT.rmdir()
        except OSError:
            pass

    counts = {
        name: value - before.get(name, 0.0) for name, value in after.items()
    }
    r0, r1, r2, r3, r5 = (times[name] for name in ("r0", "r1", "r2", "r3", "r5"))
    r4 = times.get("r4")
    count = len(sample)
    top_ms = _mean(r5)
    below_http = r4 if r4 is not None else r3
    is_write = [stmt.kind in _WRITES for stmt in sample]
    planned_r1 = [t for t, w in zip(r1, is_write) if not w]
    write_ms = sum(t for t, w in zip(r1, is_write) if w) / count
    encode_ms = sum(probes.encode_ms) / count
    engine_self = sum(
        t1 - t0 for t0, t1, w in zip(r0, r1, is_write) if not w
    ) / count
    pxql_self = _paired_self_ms(r2, r1)
    writes = counts.get("db.saves", 0.0) + counts.get("db.drops", 0.0)

    def ratio(hits: str, misses: str) -> float:
        total = counts.get(hits, 0.0) + counts.get(misses, 0.0)
        return counts.get(hits, 0.0) / total if total else 0.0

    def layer(prefix: str, rung, lower) -> dict[str, tuple[float, str]]:
        self_ms = _paired_self_ms(rung, lower) if rung is not None else 0.0
        return {
            f"{prefix}.roundtrip_ms": (
                _mean(rung) if rung is not None else 0.0, "ms"),
            f"{prefix}.self_ms": (self_ms, "ms"),
            f"{prefix}.share": (self_ms / top_ms, "share"),
        }

    waits = counts.get("server.queue_wait_s.count", 0.0)
    metrics: dict[str, tuple[float, str]] = {
        **layer("server.http", r5, below_http),
        **layer("server.shard", r4, r3),
        "server.shard.result_pickle_bytes": (_mean(pipe_bytes), "bytes"),
        "server.shard.dual_check_retries": (
            counts.get("router.dual_check_retries", 0.0), "count"),
        "server.shard.writes_fenced": (
            counts.get("router.writes_fenced", 0.0), "count"),
        **layer("server.server", r3, r2),
        "server.server.queue_wait_ms": (
            counts.get("server.queue_wait_s.sum", 0.0) * 1000.0 / waits
            if waits else 0.0, "ms"),
        "server.server.rejected": (counts.get("server.rejected", 0.0), "count"),
        "pxql.execute_ms": (_mean(r2), "ms"),
        "pxql.parse_ms": (_mean(probes.parse_ms), "ms"),
        "pxql.self_ms": (pxql_self, "ms"),
        "pxql.share": (pxql_self / top_ms, "share"),
        "check.static_ms": (_mean(probes.check_ms), "ms"),
        "check.absint_skips": (counts.get("check.absint_skips", 0.0), "count"),
        "engine.execute_ms": (_mean(planned_r1), "ms"),
        "engine.plan_ms": (_mean(probes.plan_ms), "ms"),
        "engine.certify_ms": (_mean(probes.certify_ms), "ms"),
        "engine.self_ms": (engine_self, "ms"),
        "engine.share": (engine_self / top_ms, "share"),
        "engine.results_hit_ratio": (
            ratio("engine.cache.results.hits", "engine.cache.results.misses"),
            "ratio"),
        "engine.plans_hit_ratio": (
            ratio("engine.cache.plans.hits", "engine.cache.plans.misses"),
            "ratio"),
        "engine.objects_scanned_per_req": (
            counts.get("engine.objects_scanned", 0.0) / count, "count"),
        "engine.fallbacks": (counts.get("resilience.fallbacks", 0.0), "count"),
        "index.build_ms": (index["build"], "ms"),
        "index.match_ms": (index["match"], "ms"),
        "index.walk_match_ms": (index["walk"], "ms"),
        "index.hit_ratio": (ratio("index.hits", "index.misses"), "ratio"),
        "index.builds": (counts.get("index.builds", 0.0), "count"),
        "index.skipped_instances": (
            counts.get("index.skipped_instances", 0.0), "count"),
        "algebra.op_ms": (_mean(r0), "ms"),
        "algebra.share": (_mean(r0) / top_ms, "share"),
        "storage.save_ms": (storage["save"], "ms"),
        "storage.load_ms": (storage["load"], "ms"),
        "storage.drop_ms": (storage["drop"], "ms"),
        "storage.open_ms": (storage["open"], "ms"),
        "storage.disk_bytes_per_user_byte": (disk_ratio, "ratio"),
        "storage.journal_records_per_write": (
            counts.get("db.journal_records", 0.0) / writes if writes else 0.0,
            "count"),
        "storage.lock_acquires_per_write": (
            counts.get("lock.acquires", 0.0) / writes if writes else 0.0,
            "count"),
        "storage.share": ((write_ms - encode_ms) / top_ms, "share"),
        "io.encode_ms": (storage["encode"], "ms"),
        "io.decode_ms": (storage["decode"], "ms"),
        "io.bytes_per_object": (storage["bytes_per_object"], "bytes"),
        "io.share": (encode_ms / top_ms, "share"),
        "harness.ladder_samples": (float(count), "count"),
    }
    if metrics["engine.fallbacks"][0] > 0:
        failures.append("the engine fell back to the naive path")
    return LadderResult(metrics, statistics.median(r5), failures)
