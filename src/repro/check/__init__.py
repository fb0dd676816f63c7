"""repro.check — static diagnostics over models, plans and PXQL.

Four analysis passes and a front end share one diagnostics framework
(:mod:`repro.check.diagnostics`): every finding is a
:class:`~repro.check.diagnostics.Diagnostic` with a stable code
(``PX1xx`` = model, ``PX2xx`` = plan, ``PX3xx`` = query front-end), a
severity, an optional source span, and a fix hint.

* **Model pass** (:mod:`repro.check.model`) — exhaustive linting of a
  probabilistic instance's legality conditions (Theorem 1 preconditions)
  plus summary statistics.
* **Dataguide** (:mod:`repro.check.dataguide`) — a strong-dataguide
  label-path summary of the weak instance with per-path existence
  probability intervals; the structural oracle the plan pass consults.
* **Plan pass** (:mod:`repro.check.absint`) — one abstract-interpretation
  walk over the engine's logical plan IR: probability and cardinality
  intervals per node, certified result bounds and runtime-checkable
  :class:`~repro.check.absint.PlanCertificate` records the engine
  consumes for short-circuiting and ``EXPLAIN``, and, from the same
  walk, the findings: never-matching paths, contradictory or
  tautological selection conditions, incompatible products and provably
  constant results (``PX26x``).  The plan it certifies is the plan the
  engine runs.
* **Script pass** (:mod:`repro.check.script`) — whole-script PXQL
  dataflow (``PX31x``): use-before-register, dead results, shadowed
  re-registrations, shadowed session timeouts.
* **Query front end** (:mod:`repro.check.query`) — statement-level
  checks for PXQL, with source spans from the lexer.

``python -m repro.check`` runs all passes over a database directory or
a fixture corpus (see :mod:`repro.check.cli`).
"""

from repro.check.absint import (
    CardInterval,
    PlanCertificate,
    ProbInterval,
    certify_plan,
    check_plan,
    verify_execution,
)
from repro.check.dataguide import DataGuide, build_dataguide
from repro.check.diagnostics import (
    ERROR,
    INFO,
    WARNING,
    CheckError,
    Diagnostic,
    DiagnosticReport,
    Span,
)
from repro.check.model import Issue, check_instance, format_issues, has_errors, lint_instance
from repro.check.query import check_statement, check_text
from repro.check.script import ScriptTracker, parse_script, script_diagnostics

__all__ = [
    "CardInterval",
    "CheckError",
    "DataGuide",
    "Diagnostic",
    "DiagnosticReport",
    "ERROR",
    "INFO",
    "Issue",
    "PlanCertificate",
    "ProbInterval",
    "ScriptTracker",
    "Span",
    "WARNING",
    "build_dataguide",
    "certify_plan",
    "check_instance",
    "check_plan",
    "check_statement",
    "check_text",
    "format_issues",
    "has_errors",
    "lint_instance",
    "parse_script",
    "script_diagnostics",
    "verify_execution",
]
