"""Abstract-interpretation benchmark: certification overhead and the
provably-empty short-circuit win.

For each grid cell the benchmark generates a balanced workload, builds
one live query plan (a random path that matches) and one dead query
plan (the same path extended by a label no object carries, which the
dataguide proves has zero existence probability), and times:

* ``certify``  — one full :func:`~repro.check.absint.certify_plan` pass
  over the dead plan (what the planning pipeline pays per new plan);
* ``live_on`` / ``live_off`` — the live query with the absint pass on
  vs off: the steady-state planning overhead on plans that cannot
  short-circuit;
* ``dead_on`` / ``dead_off`` — the dead query with the pass on vs off:
  ``dead_on`` serves the certified constant without touching the
  instance (the ``check.absint_skips`` path), ``dead_off`` plans it
  and walks it (:meth:`Engine.prepare`, then
  :meth:`Engine.execute_as_written`): the evaluation the series has
  always measured — not a match on the snapshot — so ``speedup`` keeps
  meaning *skip vs planned-and-walked*.

Engines run with ``caching=False`` (so every evaluation is real work,
not a cache hit).
The ``dead_on`` record carries its ``dead_off``-relative speedup; both
it and the answers' equality are also asserted by the test suite.
Records land in ``results/bench_records.json`` with
``operation == "absint"``.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable
from dataclasses import dataclass, replace

from repro.check.absint import certify_plan
from repro.check.dataguide import DataGuideCache
from repro.engine.executor import Engine, ExecutionResult
from repro.engine.plan import PlanNode, QueryNode, ScanNode
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.storage.database import Database
from repro.workloads.generator import (
    WorkloadSpec,
    generate_workload,
    random_projection_path,
)

DEFAULT_GRID: tuple[tuple[str, int, int], ...] = (
    ("SL", 2, 5), ("SL", 2, 8), ("SL", 4, 5), ("SL", 4, 7),
)

QUICK_GRID: tuple[tuple[str, int, int], ...] = (
    ("SL", 2, 4), ("SL", 3, 4),
)

#: A label no workload generator ever emits: appending it to any live
#: path yields a provably dead path.
DEAD_LABEL = "never_a_label"

MODES = ("certify", "live_off", "live_on", "dead_off", "dead_on")


@dataclass
class AbsintRecord:
    """One measured (cell, mode) combination."""

    labeling: str
    branching: int
    depth: int
    objects: int
    mode: str
    repeats: int
    total_s: float                # mean seconds per evaluation
    speedup: float | None = None  # dead_off/dead_on ratio, on dead_on
    skips: int = 0                # check.absint_skips observed in the mode

    def as_dict(self) -> dict:
        return {
            "operation": "absint",
            "labeling": self.labeling,
            "branching": self.branching,
            "depth": self.depth,
            "objects": self.objects,
            "mode": self.mode,
            "repeats": self.repeats,
            "total_s": self.total_s,
            "speedup": self.speedup,
            "skips": self.skips,
        }


def _engine(database: Database, absint: bool) -> Engine:
    return Engine(
        database, caching=False, absint=absint, metrics=MetricsRegistry(),
    )


def _time_executions(
    execute: Callable[[PlanNode], ExecutionResult], plan: PlanNode,
    repeats: int,
) -> tuple[float, object]:
    value: object = None
    execute(plan)                       # untimed warmup (guide build etc.)
    start = time.perf_counter()
    for _ in range(repeats):
        value = execute(plan).value
    return (time.perf_counter() - start) / repeats, value


def _measure_cell(
    labeling: str, branching: int, depth: int, seed: int, repeats: int,
) -> list[AbsintRecord]:
    workload = generate_workload(
        WorkloadSpec(depth=depth, branching=branching, labeling=labeling,
                     seed=seed)
    )
    pi = workload.instance
    rng = random.Random(seed + 1)
    live_path = random_projection_path(workload, rng)
    dead_path = replace(live_path, labels=live_path.labels + (DEAD_LABEL,))

    database = Database()
    database.register("base", pi)
    live_plan = QueryNode("exists", ScanNode("base"), path=live_path)
    dead_plan = QueryNode("exists", ScanNode("base"), path=dead_path)

    guides = DataGuideCache()
    certify_plan(dead_plan, database, guides)   # untimed guide build
    certify_start = time.perf_counter()
    for _ in range(repeats):
        certify_plan(dead_plan, database, guides)
    certify_s = (time.perf_counter() - certify_start) / repeats

    on, off = _engine(database, absint=True), _engine(database, absint=False)
    live_on_s, live_on = _time_executions(on.execute_plan, live_plan, repeats)
    live_off_s, live_off = _time_executions(
        off.execute_plan, live_plan, repeats
    )
    dead_on_s, dead_on = _time_executions(on.execute_plan, dead_plan, repeats)
    def planned_and_walked(plan: PlanNode) -> ExecutionResult:
        off.prepare(plan)
        return off.execute_as_written(plan)

    dead_off_s, dead_off = _time_executions(
        planned_and_walked, dead_plan, repeats
    )
    if (live_on, dead_on) != (live_off, dead_off):
        raise AssertionError(
            f"absint changed an answer: live {live_on} vs {live_off}, "
            f"dead {dead_on} vs {dead_off}"
        )
    skips = int(on.metrics.counter("check.absint_skips").value)

    common = dict(
        labeling=labeling, branching=branching, depth=depth,
        objects=len(pi), repeats=repeats,
    )
    return [
        AbsintRecord(mode="certify", total_s=certify_s, **common),
        AbsintRecord(mode="live_off", total_s=live_off_s, **common),
        AbsintRecord(mode="live_on", total_s=live_on_s, **common),
        AbsintRecord(mode="dead_off", total_s=dead_off_s, **common),
        AbsintRecord(
            mode="dead_on", total_s=dead_on_s,
            speedup=dead_off_s / dead_on_s if dead_on_s > 0 else None,
            skips=skips, **common,
        ),
    ]


def run_absint_bench(
    quick: bool = False, seed: int = 29, repeats: int = 20,
    metrics: MetricsRegistry | None = None,
) -> list[AbsintRecord]:
    """Measure every (cell, mode) combination of the grid."""
    grid = QUICK_GRID if quick else DEFAULT_GRID
    registry = metrics if metrics is not None else MetricsRegistry()
    records: list[AbsintRecord] = []
    with use_registry(registry):
        for labeling, branching, depth in grid:
            records.extend(
                _measure_cell(labeling, branching, depth, seed, repeats)
            )
    return records


def format_absint_records(records: list[AbsintRecord]) -> str:
    """An aligned per-cell table: one column per mode, times in ms."""
    cells: dict[tuple[str, int, int, int], dict[str, AbsintRecord]] = {}
    for record in records:
        key = (record.labeling, record.branching, record.depth, record.objects)
        cells.setdefault(key, {})[record.mode] = record

    header = (
        ["cell".ljust(16), f"{'objects':>8}"]
        + [f"{mode:>12}" for mode in MODES]
        + [f"{'speedup':>8}"]
    )
    lines = ["  ".join(header)]
    for key in sorted(cells):
        labeling, branching, depth, objects = key
        row = [f"{labeling} b={branching} d={depth}".ljust(16), f"{objects:>8}"]
        for mode in MODES:
            record = cells[key].get(mode)
            row.append(
                f"{record.total_s * 1e3:>12.4f}" if record else " " * 12
            )
        dead_on = cells[key].get("dead_on")
        speedup = dead_on.speedup if dead_on else None
        row.append(f"{speedup:>7.1f}x" if speedup is not None else " " * 8)
        lines.append("  ".join(row))
    return "\n".join(lines)


def records_to_dicts(records: list[AbsintRecord]) -> list[dict]:
    """Machine-readable form, mergeable with the other sweeps."""
    return [record.as_dict() for record in records]


__all__ = [
    "DEFAULT_GRID",
    "QUICK_GRID",
    "AbsintRecord",
    "format_absint_records",
    "records_to_dicts",
    "run_absint_bench",
]
