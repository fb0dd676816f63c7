"""PXQL abstract syntax.

One dataclass per statement kind.  The grammar (EBNF-ish):

    statement   := (check | explain | profile | set | plain)
                   ["WITH" "TIMEOUT" number]
    plain       := project | select | product | point | exists | chain
                 | prob | count | dist | worlds | show | list | drop
                 | load | save

    set         := "SET" "TIMEOUT" number
                   (session-wide statement deadline in seconds; 0 clears.
                    "WITH TIMEOUT s" overrides it for one statement)
    check       := "CHECK" plain
                   (static diagnostics only; the statement never runs)
    explain     := "EXPLAIN" ["ANALYZE" | "LINT"] plain
                   (plain must be an algebra or query statement;
                    LINT adds the static checker's findings to the plan)
    profile     := "PROFILE" plain
                   (executes the statement — side effects included —
                    and returns its span tree: per-node wall/CPU times,
                    strategies, query spans; see repro.obs)

    project     := "PROJECT" [kind] path "FROM" name ["AS" name]
    kind        := "ANCESTOR" | "DESCENDANT" | "SINGLE"
    select      := "SELECT" path "=" oid ["AND" "VALUE" "=" literal]
                   ["AND" "CARD" "(" label ")" "IN" "[" int "," int "]"]
                   ["AND" "PROB" cmp number]
                   "FROM" name ["AS" name]
    cmp         := ">" | ">=" | "<" | "<="
    product     := "PRODUCT" name "," name ["ROOT" oid] ["AS" name]
    point       := "POINT" path ":" oid "IN" name
    exists      := "EXISTS" path "IN" name
    chain       := "CHAIN" dotted-oids "IN" name
    prob        := "PROB" oid "IN" name
    count       := "COUNT" path "IN" name          (expected #matches)
    dist        := "DIST" path "IN" name           (match-count distribution)
    unroll      := "UNROLL" name "HORIZON" int ["AS" name]
    estimate    := "ESTIMATE" path [":" oid] "IN" name ["SAMPLES" int]
    worlds      := "WORLDS" name ["LIMIT" int]
    show        := "SHOW" name
    list        := "LIST"
    drop        := "DROP" name
    load        := "LOAD" name "FROM" string
    save        := "SAVE" name ["TO" string]

Paths are the paper's dotted form (``R.book.author``); a bare object id
is a zero-label path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.semistructured.paths import PathExpression


@dataclass(frozen=True)
class ProjectStatement:
    kind: str                      # "ancestor" | "descendant" | "single"
    path: PathExpression
    source: str
    target: str | None


@dataclass(frozen=True)
class SelectStatement:
    path: PathExpression
    oid: str
    value: object | None           # AND VALUE = ...
    card_label: str | None         # AND CARD(label) IN [lo, hi]
    card_bounds: tuple[int, int] | None
    source: str
    target: str | None
    prob_op: str | None = None     # AND PROB <cmp> <number> (assertion on
    prob_bound: float | None = None  # the condition probability)


@dataclass(frozen=True)
class ProductStatement:
    left: str
    right: str
    new_root: str | None
    target: str | None


@dataclass(frozen=True)
class PointStatement:
    path: PathExpression
    oid: str
    source: str


@dataclass(frozen=True)
class ExistsStatement:
    path: PathExpression
    source: str


@dataclass(frozen=True)
class ChainStatement:
    chain: tuple[str, ...]
    source: str


@dataclass(frozen=True)
class ProbStatement:
    oid: str
    source: str


@dataclass(frozen=True)
class CountStatement:
    path: PathExpression
    source: str


@dataclass(frozen=True)
class DistStatement:
    path: PathExpression
    source: str


@dataclass(frozen=True)
class UnrollStatement:
    source: str
    horizon: int
    target: str | None


@dataclass(frozen=True)
class EstimateStatement:
    path: PathExpression
    oid: str | None          # None = existential
    source: str
    samples: int


@dataclass(frozen=True)
class WorldsStatement:
    source: str
    limit: int


@dataclass(frozen=True)
class ShowStatement:
    source: str


@dataclass(frozen=True)
class ListStatement:
    pass


@dataclass(frozen=True)
class DropStatement:
    name: str


@dataclass(frozen=True)
class LoadStatement:
    name: str
    path: str


@dataclass(frozen=True)
class SaveStatement:
    name: str
    path: str | None


@dataclass(frozen=True)
class ExplainStatement:
    """``EXPLAIN [ANALYZE | LINT] <statement>``.

    ``analyze=False`` plans and certifies without executing;
    ``analyze=True`` also executes (with the statement's normal side
    effects, e.g. registering an ``AS`` target) and reports per-node
    timings, cardinalities and strategies.  ``lint=True`` plans
    without executing and appends the static checker's diagnostics.
    """

    analyze: bool
    statement: "Statement"
    lint: bool = False


@dataclass(frozen=True)
class CheckStatement:
    """``CHECK <statement>``: static diagnostics only, never executed."""

    statement: "Statement"


@dataclass(frozen=True)
class ProfileStatement:
    """``PROFILE <statement>``: execute and return the span tree.

    The inner statement runs with its normal semantics and side effects
    (an ``AS`` target is registered, caches are consulted and filled);
    the result value is the root :class:`repro.obs.tracing.Span` of the
    execution, whose per-node wall times sum consistently (within
    scheduler tolerance) to the root on both cache-cold and cache-warm
    runs.
    """

    statement: "Statement"


@dataclass(frozen=True)
class SetStatement:
    """``SET TIMEOUT <seconds>``: a session option assignment.

    ``option`` is currently always ``"timeout"``; ``value`` is the new
    per-statement deadline in seconds (0 clears it).
    """

    option: str
    value: float


@dataclass(frozen=True)
class TimeoutStatement:
    """``<statement> WITH TIMEOUT <seconds>``: a one-statement deadline.

    The inner statement runs under a deadline-only execution budget
    (:class:`repro.resilience.budget.Budget`), overriding any session
    default from ``SET TIMEOUT``; exceeding it raises
    :class:`~repro.errors.BudgetExceeded` at the next cooperative
    checkpoint (a plan-node boundary or a sampling batch).
    """

    statement: "Statement"
    seconds: float


Statement = (
    ProjectStatement | SelectStatement | ProductStatement | PointStatement
    | ExistsStatement | ChainStatement | ProbStatement | CountStatement
    | DistStatement | UnrollStatement | EstimateStatement | WorldsStatement
    | ShowStatement | ListStatement | DropStatement | LoadStatement
    | SaveStatement | ExplainStatement | CheckStatement | ProfileStatement
    | SetStatement | TimeoutStatement
)
