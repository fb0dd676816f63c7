"""``python -m repro.check`` — run every static pass over files on disk.

Usage::

    python -m repro.check [PATH ...] [--format text|json]
                          [--fail-on error|warning|never|PX260,PX311,...]

Each ``PATH`` may be:

* a directory — scanned recursively for ``*.pxml.json`` instance files
  (model pass + dataguide construction) and ``*.pxql`` scripts (query
  pass statement by statement, plus the whole-script dataflow pass,
  against a catalog backed by the script's directory);
* a single ``*.pxml.json`` file;
* a single ``*.pxql`` script.

The process exits 0 when the report passes the ``--fail-on`` gate and 1
otherwise, so the command can gate CI on a fixture corpus (see
``.github/workflows/ci.yml``).  The gate is either a severity
(``error`` — the default — fails on error-severity findings,
``warning`` also on warnings, ``never`` never fails) or a
comma-separated list of PX codes (fail when any listed code appears,
whatever its severity) — e.g. ``--fail-on PX260,PX311``.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from repro.check.dataguide import build_dataguide
from repro.check.diagnostics import ERROR, INFO, Diagnostic, DiagnosticReport
from repro.check.model import check_instance
from repro.check.query import check_text

_INSTANCE_SUFFIX = ".pxml.json"
_SCRIPT_SUFFIX = ".pxql"

#: CLI-level codes (files that cannot even be read).
UNREADABLE_INSTANCE = "PX120"

#: The exact name an unknown-instance finding (PX201/PX301) refers to.
#: Anchored extraction — not substring probing — so suppressing findings
#: about a script's own intermediate results can never swallow a finding
#: of another code (PX26x, PX31x, ...) that merely *mentions* a name.
_UNKNOWN_INSTANCE = re.compile(r"unknown instance '([^']*)'")

#: A PX-code gate item for ``--fail-on``.
_PX_CODE = re.compile(r"^PX\d{3}$")


def _check_instance_file(path: Path) -> list[Diagnostic]:
    """Model pass + dataguide construction for one instance file."""
    from repro.io.json_codec import read_instance

    subject = str(path)
    try:
        instance = read_instance(path)
    except Exception as error:
        return [Diagnostic(
            code=UNREADABLE_INSTANCE, severity=ERROR,
            message=f"cannot read instance file: {error}",
            subject=subject,
            hint="the file must hold one JSON-encoded probabilistic instance",
        )]
    diagnostics = check_instance(instance, name=subject)
    try:
        guide = build_dataguide(instance)
    except Exception:
        return diagnostics
    if guide.truncated:
        diagnostics.append(Diagnostic(
            code="PX191", severity=INFO,
            message="dataguide truncated (too many distinct label paths); "
                    "path-level findings may be incomplete",
            subject=subject,
        ))
    return diagnostics


def _check_script_file(path: Path) -> list[Diagnostic]:
    """Query pass over a ``.pxql`` script, one statement per line.

    Blank lines and ``#`` comments are skipped.  Names a previous
    statement defines (``AS name``, ``LOAD name``) are treated as known,
    so scripts that build on their own intermediate results do not
    produce spurious unknown-instance errors — the suppression is keyed
    on the exact name the PX201/PX301 finding names, so it can never
    hide a finding of any other code.  The whole-script dataflow pass
    (:mod:`repro.check.script`, ``PX31x``) runs after the per-statement
    checks.
    """
    from repro.check.script import script_diagnostics
    from repro.storage.database import Database

    database = Database(path.parent)
    defined: set[str] = set()
    diagnostics: list[Diagnostic] = []
    try:
        source = path.read_text()
    except OSError as error:
        return [Diagnostic(
            code=UNREADABLE_INSTANCE, severity=ERROR,
            message=f"cannot read script file: {error}", subject=str(path),
        )]
    for number, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        found = check_text(text, database)
        for diagnostic in found:
            if diagnostic.code in ("PX201", "PX301"):
                matched = _UNKNOWN_INSTANCE.search(diagnostic.message)
                if matched is not None and matched.group(1) in defined:
                    continue    # refers to an earlier statement's result
            diagnostics.append(Diagnostic(
                code=diagnostic.code, severity=diagnostic.severity,
                message=diagnostic.message,
                subject=f"{path}:{number}", oid=diagnostic.oid,
                path=diagnostic.path, span=diagnostic.span,
                hint=diagnostic.hint,
            ))
        defined.update(_defined_names(text))
    try:
        diagnostics.extend(script_diagnostics(source, prefix=str(path)))
    except Exception:
        pass    # the dataflow pass is advisory; statement findings stand
    return diagnostics


def _defined_names(text: str) -> set[str]:
    """The catalog names a statement would create when executed."""
    from repro.pxql import ast
    from repro.pxql.parser import parse

    try:
        statement = parse(text)
    except Exception:
        return set()
    while isinstance(statement, (ast.CheckStatement, ast.ExplainStatement)):
        statement = statement.statement
    names: set[str] = set()
    target = getattr(statement, "target", None)
    if target is not None:
        names.add(target)
    if isinstance(statement, ast.LoadStatement):
        names.add(statement.name)
    return names


def collect_diagnostics(paths: list[str]) -> DiagnosticReport:
    """Run the passes over every path and aggregate the findings."""
    report = DiagnosticReport()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for instance_file in sorted(path.rglob(f"*{_INSTANCE_SUFFIX}")):
                report.extend(_check_instance_file(instance_file))
            for script_file in sorted(path.rglob(f"*{_SCRIPT_SUFFIX}")):
                report.extend(_check_script_file(script_file))
        elif path.name.endswith(_INSTANCE_SUFFIX):
            report.extend(_check_instance_file(path))
        elif path.name.endswith(_SCRIPT_SUFFIX):
            report.extend(_check_script_file(path))
        else:
            report.add(Diagnostic(
                code=UNREADABLE_INSTANCE, severity=ERROR,
                message=f"not a directory, {_INSTANCE_SUFFIX} or "
                        f"{_SCRIPT_SUFFIX} path: {path}",
                subject=str(path),
            ))
    return report


def _fail_on_gate(value: str) -> str:
    """Validate a ``--fail-on`` argument: a severity or PX-code list."""
    if value in ("error", "warning", "never"):
        return value
    codes = [code.strip() for code in value.split(",") if code.strip()]
    if codes and all(_PX_CODE.match(code) for code in codes):
        return ",".join(codes)
    raise argparse.ArgumentTypeError(
        f"expected 'error', 'warning', 'never' or comma-separated PX codes "
        f"(like 'PX260,PX311'), got {value!r}"
    )


def report_fails(report: DiagnosticReport, gate: str) -> bool:
    """Apply a validated ``--fail-on`` gate to a report."""
    if gate in ("error", "warning", "never"):
        return report.fails(gate)
    codes = set(gate.split(","))
    return any(d.code in codes for d in report.diagnostics)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Static diagnostics over PXML instance files and "
                    "PXQL scripts.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["examples"],
        help="directories, *.pxml.json files, or *.pxql scripts "
             "(default: examples)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--fail-on", type=_fail_on_gate, default="error",
        help="exit non-zero on findings at (or above) this severity — "
             "'error' (default), 'warning', 'never' — or on any of a "
             "comma-separated list of PX codes (e.g. 'PX260,PX311')",
    )
    arguments = parser.parse_args(argv)
    report = collect_diagnostics(arguments.paths or ["examples"])
    output = report.to_json() if arguments.format == "json" else report.to_text()
    print(output)
    return 1 if report_fails(report, arguments.fail_on) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
