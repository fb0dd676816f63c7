"""The query pass: PXQL front-end diagnostics (``PX3xx``).

:func:`check_statement` is the check-before-execute entry point the
interpreter calls: it routes plannable statements (algebra and
probabilistic queries) through the plan pass (:mod:`repro.check.absint`)
and statically checks the catalog/file preconditions of the remaining
statement kinds.  Diagnostics are anchored to the statement's source
text via the span map :func:`repro.pxql.parser.parse_spanned` records.

:func:`check_text` additionally owns the syntax level: a statement that
does not even tokenize or parse becomes a ``PX310`` diagnostic with the
offending source position instead of an exception.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import replace

from repro.check.absint import check_plan
from repro.check.dataguide import DataGuideCache
from repro.check.diagnostics import ERROR, Diagnostic, Span
from repro.engine.plan import plan_statement
from repro.pxql import ast
from repro.pxql.lexer import PXQLSyntaxError
from repro.pxql.parser import SpanMap, parse_spanned

#: Which span role anchors each plan-pass code (best effort).
_CODE_ROLES: dict[str, tuple[str, ...]] = {
    "PX201": ("source",),
    "PX210": ("path",),
    "PX220": ("oid", "path"),
    "PX222": ("value", "oid"),
    "PX223": ("card", "oid"),
    "PX224": ("card", "oid"),
    "PX225": ("prob",),
    "PX226": ("prob",),
    "PX230": ("left",),
    "PX231": ("root", "left"),
    "PX240": ("path",),
    "PX241": ("oid", "path"),
    "PX242": ("chain",),
    "PX243": ("chain",),
    "PX244": ("oid",),
    "PX260": ("path",),
    "PX261": ("prob", "oid", "path"),
    "PX262": ("oid", "path"),
    "PX263": ("prob", "oid", "path"),
}


def _attach_spans(
    diagnostics: list[Diagnostic], spans: SpanMap | None
) -> list[Diagnostic]:
    if not spans:
        return diagnostics
    anchored: list[Diagnostic] = []
    for diagnostic in diagnostics:
        if diagnostic.span is None:
            for role in _CODE_ROLES.get(diagnostic.code, ()):
                if role in spans:
                    start, end = spans[role]
                    diagnostic = replace(diagnostic, span=Span(start, end))
                    break
        anchored.append(diagnostic)
    return anchored


def _span_of(spans: SpanMap | None, role: str) -> Span | None:
    if spans and role in spans:
        start, end = spans[role]
        return Span(start, end)
    return None


def _has_instance(database, name: str) -> bool:
    try:
        database.get(name)
    except Exception:
        return False
    return True


def _check_source(
    database, name: str, spans: SpanMap | None, subject: str | None
) -> list[Diagnostic]:
    if _has_instance(database, name):
        return []
    return [Diagnostic(
        code="PX301", severity=ERROR,
        message=f"unknown instance {name!r} in catalog",
        subject=subject, span=_span_of(spans, "source"),
        hint="LIST shows the registered names",
    )]


def check_statement(
    statement: ast.Statement,
    database,
    spans: SpanMap | None = None,
    guides: DataGuideCache | None = None,
    subject: str | None = None,
    rewrites: bool = False,
    certified: Callable[..., None] | None = None,
) -> list[Diagnostic]:
    """Statically check one parsed PXQL statement against a catalog.

    Returns the combined plan-pass and query-pass findings; never
    executes the statement.  ``CHECK``, ``EXPLAIN``, ``PROFILE`` and
    ``... WITH TIMEOUT`` wrappers are unwrapped to their inner statement
    first.  ``certified`` is :func:`~repro.check.absint.check_plan`'s.
    """
    while isinstance(
        statement,
        (ast.CheckStatement, ast.ExplainStatement, ast.ProfileStatement,
         ast.TimeoutStatement),
    ):
        statement = statement.statement

    plan = plan_statement(statement)
    if plan is not None:
        diagnostics = check_plan(plan, database, guides=guides,
                                 subject=subject, rewrites=rewrites,
                                 certified=certified)
        return _attach_spans(diagnostics, spans)

    diagnostics = []
    if isinstance(statement, (ast.DropStatement, ast.SaveStatement)):
        diagnostics.extend(_check_source(database, statement.name, spans, subject))
    elif isinstance(statement, (
        ast.ShowStatement, ast.WorldsStatement, ast.UnrollStatement,
    )):
        diagnostics.extend(_check_source(database, statement.source, spans, subject))
    elif isinstance(statement, ast.EstimateStatement):
        diagnostics.extend(_check_source(database, statement.source, spans, subject))
        if statement.samples <= 0:
            diagnostics.append(Diagnostic(
                code="PX303", severity=ERROR,
                message=f"ESTIMATE needs a positive sample count, got "
                        f"{statement.samples}",
                subject=subject,
                hint="SAMPLES must be at least 1",
            ))
    elif isinstance(statement, ast.LoadStatement):
        if not os.path.isfile(statement.path):
            diagnostics.append(Diagnostic(
                code="PX302", severity=ERROR,
                message=f"LOAD source file {statement.path!r} does not exist",
                subject=subject, span=_span_of(spans, "file"),
                hint="check the quoted path",
            ))
    return diagnostics


def check_text(
    text: str,
    database,
    guides: DataGuideCache | None = None,
    rewrites: bool = False,
) -> list[Diagnostic]:
    """Statically check one PXQL statement given as source text.

    Syntax errors become ``PX310`` diagnostics (with the source offset
    when the lexer/parser knew it) instead of raising.
    """
    subject = text.strip()
    try:
        statement, spans = parse_spanned(text)
    except PXQLSyntaxError as error:
        position = getattr(error, "position", None)
        span = Span(position, position + 1) if position is not None and \
            position < len(text) else None
        return [Diagnostic(
            code="PX310", severity=ERROR, message=str(error),
            subject=subject, span=span,
            hint="see the grammar in `docs/PXQL.md`",
        )]
    return check_statement(statement, database, spans=spans, guides=guides,
                           subject=subject, rewrites=rewrites)
