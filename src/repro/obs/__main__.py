"""Command-line entry point for the observability layer.

Usage::

    python -m repro.obs trace SCRIPT.pxql [-d DIR] [--format text|jsonl]
                              [--slow-ms N] [--metrics OUT.json]
                              [--spans OUT.jsonl]
    python -m repro.obs records [--path results/bench_records.json]
                              [--operation engine]

``trace`` runs a PXQL script (one statement per line, ``#`` comments and
blank lines skipped) through a fully instrumented interpreter and prints
per-statement span trees, the metrics summary, and the slow-query log.
``records`` summarizes the accumulated benchmark/metrics record file
that ``python -m repro.bench ... --append-records`` maintains.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.obs.export import (
    render_metrics,
    render_span_tree,
    spans_to_jsonl,
    write_metrics_json,
    write_spans_jsonl,
)
from repro.obs.tracing import Span


def _iter_statements(text: str) -> list[str]:
    statements: list[str] = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            statements.append(line)
    return statements


def _run_trace(args: argparse.Namespace) -> int:
    from repro.errors import PXMLError
    from repro.pxql.interpreter import Interpreter
    from repro.storage.database import Database

    script = Path(args.script)
    if not script.exists():
        print(f"error: no such script: {script}", file=sys.stderr)
        return 2
    directory = args.database if args.database else script.parent
    interpreter = Interpreter(
        Database(directory),
        check="warn",
        slow_query_s=args.slow_ms / 1e3,
    )

    ok = True
    roots: list[Span] = []
    for statement in _iter_statements(script.read_text(encoding="utf-8")):
        try:
            result = interpreter.execute(statement)
        except PXMLError as exc:
            print(f"error: {statement}: {exc}", file=sys.stderr)
            ok = False
            continue
        span = interpreter.tracer.last
        if span is not None:
            roots.append(span)
        if args.format == "text":
            print(f"-- {statement}")
            if span is not None:
                print(render_span_tree(span))
            if result.text and args.verbose:
                print(result.text)
            print()
    if args.format == "jsonl":
        print(spans_to_jsonl(roots))
    else:
        print("== metrics ==")
        print(render_metrics(interpreter.metrics))
        slow = interpreter.slow_log.records()
        print(f"== slow queries (threshold {args.slow_ms:g} ms) ==")
        for record in slow:
            print(str(record))
        if not slow:
            print("(none)")
    if args.spans:
        path = write_spans_jsonl(roots, args.spans)
        print(f"spans written to {path}", file=sys.stderr)
    if args.metrics:
        path = write_metrics_json(interpreter.metrics, args.metrics)
        print(f"metrics written to {path}", file=sys.stderr)
    return 0 if ok else 1


def _run_records(args: argparse.Namespace) -> int:
    path = Path(args.path)
    if not path.exists():
        print(f"error: no record file at {path}", file=sys.stderr)
        return 2
    loaded = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(loaded, list):
        print(f"error: {path} is not a JSON array", file=sys.stderr)
        return 2
    records = [entry for entry in loaded if isinstance(entry, dict)]
    if args.operation:
        records = [
            entry for entry in records
            if entry.get("operation") == args.operation
        ]
    by_operation: dict[str, int] = {}
    for entry in records:
        operation = str(entry.get("operation", "?"))
        by_operation[operation] = by_operation.get(operation, 0) + 1
    print(f"{len(records)} records in {path}")
    for operation in sorted(by_operation):
        print(f"  {operation}: {by_operation[operation]}")
    for entry in records:
        if entry.get("operation") != "metrics":
            continue
        context = {
            key: value for key, value in entry.items()
            if key not in ("operation", "metrics")
        }
        metrics = entry.get("metrics")
        counters = 0
        if isinstance(metrics, dict):
            counters = len(metrics)
        print(f"  metrics snapshot {context}: {counters} instruments")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Trace PXQL scripts and inspect accumulated bench records.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trace = sub.add_parser("trace", help="run a PXQL script with tracing")
    trace.add_argument("script", help="PXQL script (one statement per line)")
    trace.add_argument("-d", "--database", metavar="DIR",
                       help="instance directory (default: the script's)")
    trace.add_argument("--format", choices=("text", "jsonl"), default="text")
    trace.add_argument("--slow-ms", type=float, default=250.0,
                       help="slow-query threshold in milliseconds")
    trace.add_argument("--metrics", metavar="PATH",
                       help="also write the metrics registry as JSON")
    trace.add_argument("--spans", metavar="PATH",
                       help="also write every span as JSON lines")
    trace.add_argument("--verbose", action="store_true",
                       help="print each statement's result text too")

    records = sub.add_parser("records", help="summarize bench records")
    records.add_argument("--path", default="results/bench_records.json")
    records.add_argument("--operation", help="only this operation kind")

    args = parser.parse_args(argv)
    if args.command == "trace":
        return _run_trace(args)
    return _run_records(args)


if __name__ == "__main__":
    sys.exit(main())
