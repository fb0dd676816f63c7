"""Command-line entry point: regenerate the paper's figures.

Usage::

    python -m repro.bench fig7a  [--quick] [--independent] [--json OUT.json]
    python -m repro.bench fig7b  [--quick] [--independent] [--json OUT.json]
    python -m repro.bench fig7c  [--quick] [--independent] [--json OUT.json]
    python -m repro.bench all    [--quick] [--independent] [--json OUT.json]
    python -m repro.bench report --json RECORDS.json

``fig7a``/``fig7b`` share one ancestor-projection sweep (total time and
p-update time are two views of the same measurements); ``fig7c`` runs the
selection sweep; ``report`` re-renders the same tables from records a
run saved with ``--json``.  Served throughput and latency are measured
through a socket by ``benchmarks/e2e`` (``BENCHMARK.json``).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench.runner import (
    DEFAULT_GRID,
    QUICK_GRID,
    SweepConfig,
    SweepRecord,
    format_series,
    records_to_dicts,
    run_projection_sweep,
    run_selection_sweep,
)
from repro.bench.timing import TimingBreakdown

#: (figure, operation, component, title) of every table, in print order.
TABLES = (
    ("fig7a", "projection", "total",
     "Figure 7(a): ancestor projection — total query time (ms)"),
    ("fig7b", "projection", "update",
     "Figure 7(b): ancestor projection — update p time (ms)"),
    ("fig7c", "selection", "total",
     "Figure 7(c): selection — total query time (ms)"),
    ("fig7c", "selection", "write",
     "Figure 7(c) detail: selection — disk-write component (ms)"),
)
FIGURES = ("fig7a", "fig7b", "fig7c")


def _config(quick: bool, opf_kind: str = "tabular") -> SweepConfig:
    grid = dict(QUICK_GRID if quick else DEFAULT_GRID)
    if quick:
        return SweepConfig(grid=grid, instances_per_config=1,
                           queries_per_instance=3, opf_kind=opf_kind)
    return SweepConfig(grid=grid, opf_kind=opf_kind)


def _print_tables(
    by_operation: dict[str, list[SweepRecord]], figures: tuple[str, ...]
) -> None:
    """Print every table of ``figures`` whose operation has records."""
    for figure, operation, component, title in TABLES:
        if figure in figures and by_operation.get(operation):
            print(title)
            print(format_series(by_operation[operation], component))
            print()


def _report(path: str) -> int:
    """Re-render the figure tables from previously saved raw records."""
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    by_operation: dict[str, list[SweepRecord]] = {}
    for entry in raw:
        operation = entry.get("operation")
        if operation not in ("projection", "selection"):
            print(f"error: {path}: cannot render a {operation!r} record "
                  "(only projection and selection records are figures)",
                  file=sys.stderr)
            return 2
        by_operation.setdefault(operation, []).append(SweepRecord(
            operation=operation,
            labeling=entry["labeling"],
            branching=entry["branching"],
            depth=entry["depth"],
            objects=entry["objects"],
            entries=entry["entries"],
            queries=entry["queries"],
            timing=TimingBreakdown(
                copy=entry["copy_s"], locate=entry["locate_s"],
                structure=entry["structure_s"], update=entry["update_s"],
                write=entry["write_s"],
            ),
        ))
    _print_tables(by_operation, FIGURES)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the PXML paper's Figure 7 experiment series.",
    )
    parser.add_argument("figure", choices=(*FIGURES, "all", "report"))
    parser.add_argument("--quick", action="store_true", help="use the small grid")
    parser.add_argument(
        "--independent", action="store_true",
        help="use compact independent OPFs instead of the paper's 2^b tables",
    )
    parser.add_argument("--json", metavar="PATH", help="also dump raw records")
    args = parser.parse_args(argv)

    if args.figure == "report":
        if not args.json:
            parser.error("report needs --json PATH pointing at saved records")
        return _report(args.json)

    config = _config(args.quick, "independent" if args.independent else "tabular")
    figures = FIGURES if args.figure == "all" else (args.figure,)
    by_operation: dict[str, list[SweepRecord]] = {}
    if {"fig7a", "fig7b"} & set(figures):
        by_operation["projection"] = run_projection_sweep(config)
    if "fig7c" in figures:
        by_operation["selection"] = run_selection_sweep(config)
    _print_tables(by_operation, figures)

    if args.json:
        all_records = [
            row for records in by_operation.values()
            for row in records_to_dicts(records)
        ]
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(all_records, handle, indent=2)
        print(f"raw records written to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
