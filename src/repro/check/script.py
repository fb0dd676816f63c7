"""The script pass: whole-script PXQL dataflow diagnostics (``PX31x``).

The statement-level passes (:mod:`repro.check.query`,
:mod:`repro.check.absint`) see one statement at a time; a script has
dataflow *between* statements: results registered under ``AS`` names,
read by later statements, shadowed by re-registration, or never read at
all.  This pass runs over a whole script (one statement per line, the
``*.pxql`` convention) and reports:

* ``PX311`` (error) — a statement reads a name that is only registered
  by a *later* statement: the script is mis-ordered and would fail at
  that line when executed top to bottom.
* ``PX312`` (warning) — an explicitly named result (``AS name`` /
  ``LOAD name``) is never read by any later statement (dead result).
* ``PX313`` (warning) — a name is re-registered while the previous
  result under it was never read (the earlier statement's work is
  silently discarded).
* ``PX314`` (warning) — a ``SET TIMEOUT`` session deadline is shadowed
  by a statement-level ``WITH TIMEOUT``, which silently overrides it.

Statements that only *inspect* (``CHECK``, non-``ANALYZE`` ``EXPLAIN``)
neither read nor register names: they never execute their inner
statement.  ``SAVE`` and ``DROP`` count as reads (the result is
consumed), so saving a result is enough to keep it "live".

:class:`ScriptTracker` adapts the same analysis to an interactive
session: the interpreter feeds it every executed statement, and
``CHECK`` / ``EXPLAIN LINT`` preview the statement against the session
history — surfacing the findings that do not need future knowledge
(``PX313`` / ``PX314``) before the statement runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.check.diagnostics import ERROR, WARNING, Diagnostic
from repro.pxql import ast
from repro.pxql.parser import parse

#: Stable diagnostic codes of this pass (``PX310`` is the syntax error
#: of :func:`repro.check.query.check_text`; the dataflow codes follow).
USE_BEFORE_REGISTER = "PX311"
DEAD_RESULT = "PX312"
SHADOWED_RESULT = "PX313"
SHADOWED_TIMEOUT = "PX314"

#: Statement kinds whose ``source``-style fields are *reads*.
_SINGLE_SOURCE = (
    ast.ProjectStatement, ast.SelectStatement, ast.PointStatement,
    ast.ExistsStatement, ast.ChainStatement, ast.ProbStatement,
    ast.CountStatement, ast.DistStatement, ast.UnrollStatement,
    ast.EstimateStatement, ast.WorldsStatement, ast.ShowStatement,
)


@dataclass(frozen=True)
class ScriptStatement:
    """One statement of a script, anchored to its line number."""

    line: int
    text: str
    statement: ast.Statement | None     # None: did not parse (PX310 land)


@dataclass(frozen=True)
class StatementFlow:
    """The dataflow facts of one statement.

    ``reads``/``defines`` are catalog names; ``defines`` holds only
    *explicit* names (``AS name`` / ``LOAD name``) — auto-generated
    ``_resultN`` names cannot be referenced, so they carry no dataflow.
    """

    reads: tuple[str, ...] = ()
    defines: tuple[str, ...] = ()
    sets_timeout: bool = False      # SET TIMEOUT with a positive value
    clears_timeout: bool = False    # SET TIMEOUT 0
    with_timeout: bool = False      # wrapped in ... WITH TIMEOUT n


def flow_of(statement: ast.Statement) -> StatementFlow:
    """The dataflow facts of one parsed statement.

    Wrappers are unwrapped by execution semantics: ``PROFILE`` and
    ``EXPLAIN ANALYZE`` execute their inner statement (its reads and
    registrations happen); ``CHECK`` and plain ``EXPLAIN`` do not.
    """
    with_timeout = False
    while True:
        if isinstance(statement, ast.TimeoutStatement):
            with_timeout = True
            statement = statement.statement
        elif isinstance(statement, ast.ProfileStatement):
            statement = statement.statement
        elif isinstance(statement, ast.ExplainStatement):
            if not statement.analyze:
                return StatementFlow(with_timeout=with_timeout)
            statement = statement.statement
        elif isinstance(statement, ast.CheckStatement):
            return StatementFlow(with_timeout=with_timeout)
        else:
            break

    reads: tuple[str, ...] = ()
    defines: tuple[str, ...] = ()
    if isinstance(statement, _SINGLE_SOURCE):
        reads = (statement.source,)
        target = getattr(statement, "target", None)
        if target is not None:
            defines = (target,)
    elif isinstance(statement, ast.ProductStatement):
        reads = (statement.left, statement.right)
        if statement.target is not None:
            defines = (statement.target,)
    elif isinstance(statement, ast.LoadStatement):
        defines = (statement.name,)
    elif isinstance(statement, (ast.SaveStatement, ast.DropStatement)):
        reads = (statement.name,)
    elif isinstance(statement, ast.SetStatement):
        if statement.option == "timeout":
            if statement.value > 0:
                return StatementFlow(sets_timeout=True,
                                     with_timeout=with_timeout)
            return StatementFlow(clears_timeout=True,
                                 with_timeout=with_timeout)
    return StatementFlow(reads=reads, defines=defines,
                         with_timeout=with_timeout)


def parse_script(text: str) -> list[ScriptStatement]:
    """Split a ``*.pxql`` script into statements (one per line).

    Blank lines and ``#`` comments are skipped — the same convention
    ``python -m repro.check`` applies.  A line that does not parse still
    appears (with ``statement=None``) so line numbers stay aligned; the
    statement-level pass owns reporting its syntax error (``PX310``).
    """
    statements: list[ScriptStatement] = []
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            statement: ast.Statement | None = parse(stripped)
        except Exception:
            statement = None
        statements.append(ScriptStatement(number, stripped, statement))
    return statements


def _subject(entry: ScriptStatement, prefix: str | None) -> str:
    if prefix is not None:
        return f"{prefix}:{entry.line}"
    return entry.text


def _findings(
    script: Sequence[ScriptStatement], prefix: str | None
) -> list[tuple[int, Diagnostic]]:
    """All dataflow findings, tagged with the line they anchor to."""
    entries = [e for e in script if e.statement is not None]
    flows = {e.line: flow_of(e.statement) for e in entries
             if e.statement is not None}

    findings: list[tuple[int, Diagnostic]] = []

    # -- per-name event streams ----------------------------------------
    def_lines: dict[str, list[int]] = {}
    use_lines: dict[str, list[int]] = {}
    for entry in entries:
        flow = flows[entry.line]
        for name in flow.reads:
            use_lines.setdefault(name, []).append(entry.line)
        for name in flow.defines:
            def_lines.setdefault(name, []).append(entry.line)

    # -- PX311: read before the registering statement ------------------
    defined: set[str] = set()
    for entry in entries:
        flow = flows[entry.line]
        for name in flow.reads:
            if name in defined:
                continue
            later = [d for d in def_lines.get(name, []) if d > entry.line]
            if later:
                findings.append((entry.line, Diagnostic(
                    code=USE_BEFORE_REGISTER, severity=ERROR,
                    message=f"{name!r} is read here but only registered "
                            f"at line {later[0]}",
                    subject=_subject(entry, prefix),
                    hint="move this statement below the one that "
                         "registers the name",
                )))
        defined.update(flow.defines)

    # -- PX312 / PX313: dead and shadowed results ----------------------
    by_line = {e.line: e for e in entries}
    for name, defs in sorted(def_lines.items()):
        uses = use_lines.get(name, [])
        for position, def_line in enumerate(defs):
            next_def = defs[position + 1] if position + 1 < len(defs) else None
            # A use on the re-registering line itself reads the *old*
            # result (reads happen before the define within a
            # statement, e.g. ``SELECT ... FROM p AS p``), so the
            # window is inclusive on the right.
            read_after = any(
                u > def_line and (next_def is None or u <= next_def)
                for u in uses
            )
            if read_after:
                continue
            if next_def is not None:
                findings.append((next_def, Diagnostic(
                    code=SHADOWED_RESULT, severity=WARNING,
                    message=f"re-registering {name!r} discards the result "
                            f"of line {def_line}, which was never read",
                    subject=_subject(by_line[next_def], prefix),
                    hint="drop the earlier statement or read its result "
                         "before re-registering the name",
                )))
            else:
                findings.append((def_line, Diagnostic(
                    code=DEAD_RESULT, severity=WARNING,
                    message=f"result {name!r} is never read by a later "
                            "statement",
                    subject=_subject(by_line[def_line], prefix),
                    hint="query, SAVE or DROP the result — or drop the "
                         "AS clause",
                )))

    # -- PX314: session timeout shadowed by WITH TIMEOUT ---------------
    timeout_line: int | None = None
    for entry in entries:
        flow = flows[entry.line]
        if flow.sets_timeout:
            timeout_line = entry.line
        elif flow.clears_timeout:
            timeout_line = None
        elif flow.with_timeout and timeout_line is not None:
            findings.append((entry.line, Diagnostic(
                code=SHADOWED_TIMEOUT, severity=WARNING,
                message=f"WITH TIMEOUT overrides the session timeout set "
                        f"at line {timeout_line} for this statement",
                subject=_subject(entry, prefix),
                hint="rely on SET TIMEOUT, or clear it with SET TIMEOUT 0 "
                     "if per-statement deadlines are intended",
            )))

    findings.sort(key=lambda pair: pair[0])
    return findings


def script_diagnostics(
    script: Iterable[ScriptStatement] | str,
    prefix: str | None = None,
) -> list[Diagnostic]:
    """Run the dataflow pass over a whole script.

    ``script`` is either the raw source text or a pre-parsed statement
    list; with ``prefix`` (typically the file path) each finding's
    subject becomes ``prefix:line``, otherwise the statement text.
    """
    if isinstance(script, str):
        script = parse_script(script)
    return [diagnostic for _line, diagnostic in _findings(list(script), prefix)]


#: Statements a session looks back over; a served interpreter lives as
#: long as its server, so the history is a window, not a log.
HISTORY_WINDOW = 512


@dataclass
class ScriptTracker:
    """Session-level dataflow state for an interactive interpreter.

    The interpreter feeds every *executed* statement through
    :meth:`observe`; ``CHECK`` / ``EXPLAIN LINT`` call :meth:`preview`
    to check a candidate statement against the session history.  Only
    the backward-looking codes (``PX313`` shadowing, ``PX314`` timeout
    shadowing) can fire interactively — dead results and
    use-before-register need the rest of the script.
    """

    _observed: int = 0
    _history: deque[ScriptStatement] = field(
        default_factory=lambda: deque(maxlen=HISTORY_WINDOW)
    )

    def observe(self, statement: ast.Statement, text: str | None = None) -> None:
        """Record one successfully executed statement."""
        self._observed += 1
        label = text if text is not None else type(statement).__name__
        self._history.append(ScriptStatement(self._observed, label, statement))

    def preview(
        self, statement: ast.Statement, subject: str | None = None
    ) -> list[Diagnostic]:
        """Findings a candidate statement would add to the session."""
        position = self._observed + 1
        label = subject if subject is not None else type(statement).__name__
        candidate = ScriptStatement(position, label, statement)
        return [
            diagnostic
            for line, diagnostic in _findings([*self._history, candidate], None)
            if line == position
            and diagnostic.code in (SHADOWED_RESULT, SHADOWED_TIMEOUT)
        ]
