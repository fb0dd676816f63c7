"""The shared diagnostics framework of the ``repro.check`` passes.

A :class:`Diagnostic` is one finding: a stable code, a severity, a
human message, the object/path/statement context it is about, an
optional source :class:`Span` (for PXQL input), and an optional fix
hint.  Passes return lists of diagnostics; :class:`DiagnosticReport`
aggregates them across subjects (instances, statements, files) and
renders text or JSON.

Code ranges:

* ``PX1xx`` — model pass (instance legality, Theorem 1 preconditions).
* ``PX2xx`` — plan pass (logical plan IR typechecking).
* ``PX3xx`` — query pass (PXQL front-end).

Severities:

* ``error`` — executing the subject will certainly fail (or the model
  has no coherent semantics).
* ``warning`` — legal but statically degenerate: the construct can
  never produce a useful result (never-matching paths, tautological
  conditions, dead objects).
* ``info`` — advisory annotations (model summaries, a truncated dataguide).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import PXMLError

ERROR = "error"
WARNING = "warning"
INFO = "info"

#: Sort/gate rank per severity (lower = more severe).
SEVERITY_RANK: dict[str, int] = {ERROR: 0, WARNING: 1, INFO: 2}


class CheckError(PXMLError):
    """Raised when check-before-execute finds error-severity diagnostics.

    Carries the full batch so callers see every problem at once instead
    of the first mid-execution failure.
    """

    def __init__(self, diagnostics: list["Diagnostic"]) -> None:
        self.diagnostics = list(diagnostics)
        lines = [str(d) for d in self.diagnostics]
        super().__init__(
            "static checks failed ({} finding{}):\n{}".format(
                len(lines), "s" if len(lines) != 1 else "", "\n".join(lines)
            )
        )


@dataclass(frozen=True)
class Span:
    """A half-open character range ``[start, end)`` in a source string."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"malformed span [{self.start}, {self.end})")

    def __str__(self) -> str:
        return f"{self.start}..{self.end}"


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding."""

    code: str                      # "PX101", "PX220", ...
    severity: str                  # ERROR | WARNING | INFO
    message: str
    subject: str | None = None     # instance name / statement text / file
    oid: str | None = None         # the object the finding is about
    path: str | None = None        # the path expression involved
    span: Span | None = None       # source span in PXQL input
    hint: str | None = None        # how to fix it

    def __str__(self) -> str:
        where = ""
        if self.subject is not None:
            where += f" [{self.subject}]"
        if self.oid is not None:
            where += f" [{self.oid}]"
        if self.span is not None:
            where += f" @{self.span}"
        text = f"{self.severity}{where} {self.code}: {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def as_dict(self) -> dict[str, object]:
        """A JSON-serializable rendering."""
        record: dict[str, object] = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
        }
        if self.subject is not None:
            record["subject"] = self.subject
        if self.oid is not None:
            record["oid"] = self.oid
        if self.path is not None:
            record["path"] = self.path
        if self.span is not None:
            record["span"] = [self.span.start, self.span.end]
        if self.hint is not None:
            record["hint"] = self.hint
        return record


def sort_diagnostics(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    """Deterministic order: severity, then subject, then oid, then code."""
    return sorted(diagnostics, key=lambda d: (
        SEVERITY_RANK.get(d.severity, 99),
        d.subject or "",
        d.oid or "",
        d.code,
        d.message,
    ))


def worst_severity(diagnostics: list[Diagnostic]) -> str | None:
    """The most severe level present, or ``None`` when empty."""
    worst: str | None = None
    for diagnostic in diagnostics:
        if worst is None or (
            SEVERITY_RANK.get(diagnostic.severity, 99) < SEVERITY_RANK.get(worst, 99)
        ):
            worst = diagnostic.severity
    return worst


def errors_of(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    """The error-severity subset."""
    return [d for d in diagnostics if d.severity == ERROR]


@dataclass
class DiagnosticReport:
    """Aggregated findings across many subjects (instances, statements)."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def extend(self, diagnostics: list[Diagnostic]) -> None:
        """Append a pass's findings."""
        self.diagnostics.extend(diagnostics)

    def add(self, diagnostic: Diagnostic) -> None:
        """Append one finding."""
        self.diagnostics.append(diagnostic)

    def sorted(self) -> list[Diagnostic]:
        """All findings in deterministic order."""
        return sort_diagnostics(self.diagnostics)

    def count(self, severity: str) -> int:
        """The number of findings at the given severity."""
        return sum(1 for d in self.diagnostics if d.severity == severity)

    def fails(self, gate: str) -> bool:
        """Whether the report violates a severity gate.

        ``gate`` is ``"error"`` (fail only on errors), ``"warning"``
        (fail on warnings or errors), or ``"never"``.
        """
        if gate == "never":
            return False
        if gate == "warning":
            return any(d.severity in (ERROR, WARNING) for d in self.diagnostics)
        if gate == "error":
            return any(d.severity == ERROR for d in self.diagnostics)
        raise ValueError(f"unknown severity gate {gate!r}")

    def to_text(self) -> str:
        """One finding per line, plus a totals footer."""
        lines = [str(d) for d in self.sorted()]
        lines.append(
            f"{self.count(ERROR)} error(s), {self.count(WARNING)} warning(s), "
            f"{self.count(INFO)} info"
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        """A JSON document: findings plus severity totals."""
        return json.dumps({
            "diagnostics": [d.as_dict() for d in self.sorted()],
            "totals": {
                "error": self.count(ERROR),
                "warning": self.count(WARNING),
                "info": self.count(INFO),
            },
        }, indent=2)
