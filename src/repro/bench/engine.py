"""Engine benchmark: optimizer and cache effect on a statement pipeline.

For each grid cell the benchmark builds the canonical three-operator
pipeline — ancestor projection, then a selection on the projected path,
then a point query — and measures it four ways:

* ``naive``     — optimizer off, caching off (the plan as planned, a
  benchmark reference);
* ``optimized`` — optimizer on, caching off (rewrites only);
* ``cold``      — optimizer on, caching on, first execution;
* ``warm``      — optimizer on, caching on, repeated execution (every
  sub-plan served from the versioned result cache).

Each record carries the result-cache hit/miss counters observed in that
mode, so the ``warm`` speedup is attributable.  Records go to
``results/bench_records.json`` next to the Figure 7 sweeps (they are
distinguished by ``operation == "engine"``).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.engine import Engine, PlanBuilder
from repro.obs.metrics import MetricsRegistry
from repro.semistructured.paths import match_path
from repro.storage.database import Database
from repro.workloads.generator import (
    WorkloadSpec,
    generate_workload,
    random_projection_path,
)

#: (labeling, branching, depth) cells; sizes follow the Figure 7 shape.
DEFAULT_GRID: tuple[tuple[str, int, int], ...] = (
    ("SL", 2, 3), ("SL", 2, 5), ("SL", 2, 7),
    ("SL", 4, 3), ("SL", 4, 4),
    ("FR", 2, 5), ("FR", 4, 4),
)

QUICK_GRID: tuple[tuple[str, int, int], ...] = (
    ("SL", 2, 3), ("SL", 2, 5), ("FR", 4, 3),
)

MODES = ("naive", "optimized", "cold", "warm")


@dataclass
class EngineRecord:
    """One measured (cell, mode) combination."""

    labeling: str
    branching: int
    depth: int
    objects: int
    entries: int
    mode: str
    repeats: int
    total_s: float
    applied_rules: int
    cache_hits: int
    cache_misses: int

    def as_dict(self) -> dict:
        return {
            "operation": "engine",
            "labeling": self.labeling,
            "branching": self.branching,
            "depth": self.depth,
            "objects": self.objects,
            "entries": self.entries,
            "mode": self.mode,
            "repeats": self.repeats,
            "total_s": self.total_s,
            "applied_rules": self.applied_rules,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }


def pipeline_plan(workload, rng: random.Random):
    """The benchmark pipeline: project, select on the path, point query."""
    path = random_projection_path(workload, rng)
    graph = workload.instance.weak.graph()
    oid = rng.choice(sorted(match_path(graph, path).matched))
    return (
        PlanBuilder.scan("base")
        .project(path)
        .select(path, oid)
        .point(path, oid)
        .build()
    )


def _engine_for(
    mode: str, database: Database, metrics: MetricsRegistry | None = None
) -> Engine:
    if mode == "naive":
        return Engine(database, optimizer=False, caching=False, metrics=metrics)
    if mode == "optimized":
        return Engine(database, optimizer=True, caching=False, metrics=metrics)
    return Engine(database, optimizer=True, caching=True, metrics=metrics)


def _measure_cell(
    labeling: str, branching: int, depth: int, seed: int, repeats: int,
    metrics: MetricsRegistry | None = None,
) -> list[EngineRecord]:
    workload = generate_workload(
        WorkloadSpec(depth=depth, branching=branching, labeling=labeling,
                     seed=seed)
    )
    rng = random.Random(seed + 1)
    plan = pipeline_plan(workload, rng)

    records: list[EngineRecord] = []
    for mode in MODES:
        database = Database()
        database.register("base", workload.instance)
        engine = _engine_for(mode, database, metrics)
        if mode == "warm":  # populate the caches outside the clock
            engine.execute_plan(plan)
        before = engine.result_cache.stats
        elapsed = 0.0
        for _ in range(repeats):
            if mode == "cold":  # every repetition starts empty
                engine.result_cache.clear()
            start = time.perf_counter()
            result = engine.execute_plan(plan)
            elapsed += time.perf_counter() - start
        after = engine.result_cache.stats
        records.append(EngineRecord(
            labeling=labeling,
            branching=branching,
            depth=depth,
            objects=workload.num_objects,
            entries=workload.total_entries,
            mode=mode,
            repeats=repeats,
            total_s=elapsed / repeats,
            applied_rules=len(result.applied_rules),
            cache_hits=after.hits - before.hits,
            cache_misses=after.misses - before.misses,
        ))
    return records


def run_engine_bench(
    quick: bool = False, seed: int = 11, repeats: int = 5,
    metrics: MetricsRegistry | None = None,
) -> list[EngineRecord]:
    """Measure every (cell, mode) combination of the grid.

    When ``metrics`` is given, every benchmark engine reports into that
    shared registry (cache counters, operator latency histograms, ...),
    so a single ``repro.obs`` metrics dump summarizes the whole run.
    """
    grid = QUICK_GRID if quick else DEFAULT_GRID
    records: list[EngineRecord] = []
    for labeling, branching, depth in grid:
        records.extend(
            _measure_cell(labeling, branching, depth, seed, repeats, metrics)
        )
    return records


def format_engine_records(records: list[EngineRecord]) -> str:
    """An aligned per-cell table: one column per mode, times in ms."""
    cells: dict[tuple[str, int, int, int], dict[str, EngineRecord]] = {}
    for record in records:
        key = (record.labeling, record.branching, record.depth, record.objects)
        cells.setdefault(key, {})[record.mode] = record

    header = ["cell".ljust(16)] + [f"{mode:>12}" for mode in MODES] + [
        f"{'warm hits':>10}"
    ]
    lines = ["  ".join(header)]
    for key in sorted(cells):
        labeling, branching, depth, objects = key
        row = [f"{labeling} b={branching} d={depth}".ljust(16)]
        for mode in MODES:
            record = cells[key].get(mode)
            row.append(
                f"{record.total_s * 1e3:>12.3f}" if record else " " * 12
            )
        warm = cells[key].get("warm")
        row.append(f"{warm.cache_hits if warm else 0:>10}")
        lines.append("  ".join(row))
    return "\n".join(lines)


def records_to_dicts(records: list[EngineRecord]) -> list[dict]:
    """Machine-readable form, mergeable with the Figure 7 records."""
    return [record.as_dict() for record in records]
