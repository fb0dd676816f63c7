"""Command-line entry point: regenerate the paper's figures.

Usage::

    python -m repro.bench fig7a  [--quick] [--json OUT.json]
    python -m repro.bench fig7b  [--quick]
    python -m repro.bench fig7c  [--quick]
    python -m repro.bench engine [--quick] [--json OUT.json]
    python -m repro.bench engine --smoke [--metrics OUT.json]
    python -m repro.bench index  [--quick] [--json OUT.json]
    python -m repro.bench index  --smoke [--metrics OUT.json]
    python -m repro.bench absint [--quick] [--json OUT.json]
    python -m repro.bench absint --smoke [--metrics OUT.json]
    python -m repro.bench all    [--quick] [--json OUT.json]

``fig7a``/``fig7b`` share one ancestor-projection sweep (total time and
p-update time are two views of the same measurements); ``fig7c`` runs the
selection sweep; ``engine`` measures the query engine's optimizer and
cache effect (naive / optimized / cold-cache / warm-cache) on a
projection-selection-query pipeline; ``index`` compares indexed vs
walked path navigation (:mod:`repro.bench.index`); ``absint`` measures
the abstract interpreter's certification overhead and provably-empty
short-circuit win (:mod:`repro.bench.absint`).  Served throughput and
latency are measured through a socket by ``benchmarks/e2e``
(``BENCHMARK.json``).

``--smoke`` is the CI entry point: the quick grid with minimal repeats,
plus a :mod:`repro.obs` metrics dump (``--metrics``, default
``results/bench_metrics.json``) summarizing cache counters and operator
latencies across the run.  ``--append-records`` appends the raw records
to ``results/bench_records.json`` instead of requiring ``--json``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench.runner import (
    DEFAULT_GRID,
    QUICK_GRID,
    SweepConfig,
    format_series,
    records_to_dicts,
    run_projection_sweep,
    run_selection_sweep,
)


def _config(quick: bool, opf_kind: str = "tabular") -> SweepConfig:
    grid = dict(QUICK_GRID if quick else DEFAULT_GRID)
    if quick:
        return SweepConfig(grid=grid, instances_per_config=1,
                           queries_per_instance=3, opf_kind=opf_kind)
    return SweepConfig(grid=grid, opf_kind=opf_kind)


def _report(path: str) -> int:
    """Re-render the figure tables from previously saved raw records."""
    from repro.bench.runner import SweepRecord
    from repro.bench.timing import TimingBreakdown

    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    by_operation: dict[str, list[SweepRecord]] = {}
    for entry in raw:
        record = SweepRecord(
            operation=entry["operation"],
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
        )
        by_operation.setdefault(record.operation, []).append(record)
    if "projection" in by_operation:
        print("Figure 7(a): ancestor projection — total query time (ms)")
        print(format_series(by_operation["projection"], "total"))
        print()
        print("Figure 7(b): ancestor projection — update p time (ms)")
        print(format_series(by_operation["projection"], "update"))
        print()
    if "selection" in by_operation:
        print("Figure 7(c): selection — total query time (ms)")
        print(format_series(by_operation["selection"], "total"))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the PXML paper's Figure 7 experiment series.",
    )
    parser.add_argument(
        "figure",
        choices=("fig7a", "fig7b", "fig7c", "engine", "index", "absint",
                 "all", "report"),
    )
    parser.add_argument("--quick", action="store_true", help="use the small grid")
    parser.add_argument(
        "--independent", action="store_true",
        help="use compact independent OPFs instead of the paper's 2^b tables",
    )
    parser.add_argument("--json", metavar="PATH", help="also dump raw records")
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI smoke run: quick grid, minimal repeats, metrics dump",
    )
    parser.add_argument(
        "--metrics", metavar="PATH",
        help="write the shared metrics registry as JSON "
             "(default with --smoke: results/bench_metrics.json)",
    )
    parser.add_argument(
        "--append-records", action="store_true",
        help="append raw records to results/bench_records.json",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.quick = True

    if args.figure == "report":
        if not args.json:
            parser.error("report needs --json PATH pointing at saved records")
        return _report(args.json)

    config = _config(args.quick, "independent" if args.independent else "tabular")
    all_records = []

    if args.figure in ("fig7a", "fig7b", "all"):
        records = run_projection_sweep(config)
        all_records.extend(records_to_dicts(records))
        if args.figure in ("fig7a", "all"):
            print("Figure 7(a): ancestor projection — total query time (ms)")
            print(format_series(records, "total"))
            print()
        if args.figure in ("fig7b", "all"):
            print("Figure 7(b): ancestor projection — update p time (ms)")
            print(format_series(records, "update"))
            print()
    if args.figure in ("fig7c", "all"):
        records = run_selection_sweep(config)
        all_records.extend(records_to_dicts(records))
        print("Figure 7(c): selection — total query time (ms)")
        print(format_series(records, "total"))
        print()
        print("Figure 7(c) detail: selection — disk-write component (ms)")
        print(format_series(records, "write"))
        print()
    if args.figure in ("engine", "index", "absint", "all"):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()

        if args.figure in ("engine", "all"):
            from repro.bench.engine import (
                format_engine_records,
                records_to_dicts as engine_records_to_dicts,
                run_engine_bench,
            )

            engine_records = run_engine_bench(
                quick=args.quick,
                repeats=2 if args.smoke else 5,
                metrics=registry,
            )
            all_records.extend(engine_records_to_dicts(engine_records))
            print("Engine: pipeline time per mode (ms)")
            print(format_engine_records(engine_records))
            print()

        if args.figure in ("index", "all"):
            from repro.bench.index import (
                format_index_records,
                records_to_dicts as index_records_to_dicts,
                run_index_bench,
            )

            index_records = run_index_bench(
                quick=args.quick,
                repeats=3 if args.smoke else 20,
                metrics=registry,
            )
            all_records.extend(index_records_to_dicts(index_records))
            print("Path index: mean per-query time per mode (ms)")
            print(format_index_records(index_records))
            print()

        if args.figure in ("absint", "all"):
            from repro.bench.absint import (
                format_absint_records,
                records_to_dicts as absint_records_to_dicts,
                run_absint_bench,
            )

            absint_records = run_absint_bench(
                quick=args.quick,
                repeats=3 if args.smoke else 20,
                metrics=registry,
            )
            all_records.extend(absint_records_to_dicts(absint_records))
            print("Absint: mean per-evaluation time per mode (ms)")
            print(format_absint_records(absint_records))
            print()

        metrics_path = args.metrics
        if metrics_path is None and args.smoke:
            metrics_path = "results/bench_metrics.json"
        if metrics_path is not None:
            from repro.obs.export import write_metrics_json

            write_metrics_json(registry, metrics_path)
            print(f"metrics written to {metrics_path}")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(all_records, handle, indent=2)
        print(f"raw records written to {args.json}")
    if args.append_records:
        from repro.obs.export import append_bench_records

        path = append_bench_records(all_records)
        print(f"{len(all_records)} records appended to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
