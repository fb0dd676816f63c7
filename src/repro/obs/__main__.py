"""Command-line entry point for the observability layer.

Usage::

    python -m repro.obs trace SCRIPT.pxql [-d DIR] [--format text|jsonl]
                              [--slow-ms N] [--metrics OUT.json]
                              [--spans OUT.jsonl]

``trace`` runs a PXQL script (one statement per line, ``#`` comments and
blank lines skipped) through a fully instrumented interpreter and prints
per-statement span trees, the metrics summary, and the slow-query log.
"""

from __future__ import annotations

import argparse
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Trace PXQL scripts.",
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

    return _run_trace(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
