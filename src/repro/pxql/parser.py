"""Recursive-descent parser for PXQL (grammar in :mod:`repro.pxql.ast`).

Besides the AST, the parser records the *source span* of each semantic
role it consumes (the path, the condition object, the FROM/IN source,
...).  :func:`parse_spanned` exposes them as a ``{role: (start, end)}``
map so the static checker (:mod:`repro.check.query`) can anchor its
diagnostics in the statement text; :func:`parse` keeps the original
AST-only signature.
"""

from __future__ import annotations

import functools
from collections.abc import Callable

from repro.pxql import ast
from repro.pxql.lexer import PXQLSyntaxError, Token, tokenize
from repro.semistructured.paths import PathExpression

#: A half-open character range in the source text.
SpanMap = dict[str, tuple[int, int]]

_PROB_OPS = (">", ">=", "<", "<=")

#: Distinct statement texts a :func:`parse_memo` remembers (the engine's
#: LRUs hold as many entries: a working set past it re-plans anyway).
PARSE_MEMO_SIZE = 256


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._index = 0
        self.spans: SpanMap = {}

    # -- token plumbing -------------------------------------------------
    def _peek(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _expect_keyword(self, *keywords: str) -> str:
        token = self._advance()
        if token.kind != "KEYWORD" or token.value not in keywords:
            raise PXQLSyntaxError(
                f"expected {' or '.join(keywords)}, got {token.value!r}",
                position=token.position,
            )
        return token.value

    def _accept_keyword(self, *keywords: str) -> str | None:
        token = self._peek()
        if token.kind == "KEYWORD" and token.value in keywords:
            self._advance()
            return token.value
        return None

    def _expect_punct(self, symbol: str) -> None:
        token = self._advance()
        if token.kind != "PUNCT" or token.value != symbol:
            raise PXQLSyntaxError(
                f"expected {symbol!r}, got {token.value!r}",
                position=token.position,
            )

    def _expect_ident(self, role: str | None = None) -> str:
        token = self._advance()
        if token.kind != "IDENT":
            raise PXQLSyntaxError(
                f"expected an identifier, got {token.value!r}",
                position=token.position,
            )
        if role is not None:
            self.spans[role] = token.span
        return token.value

    def _expect_name(self, role: str | None = None) -> str:
        name = self._expect_ident(role)
        if "." in name:
            raise PXQLSyntaxError(f"expected a plain name, got path {name!r}")
        return name

    def _expect_path(self, role: str = "path") -> PathExpression:
        return PathExpression.parse(self._expect_ident(role))

    def _expect_literal(self, role: str | None = None) -> object:
        token = self._advance()
        if role is not None:
            self.spans[role] = token.span
        if token.kind == "STRING":
            return token.value
        if token.kind == "NUMBER":
            value = float(token.value)
            return int(value) if value.is_integer() else value
        if token.kind == "IDENT":
            return token.value
        raise PXQLSyntaxError(
            f"expected a literal, got {token.value!r}", position=token.position
        )

    def _expect_int(self) -> int:
        token = self._advance()
        if token.kind != "NUMBER" or "." in token.value:
            raise PXQLSyntaxError(
                f"expected an integer, got {token.value!r}",
                position=token.position,
            )
        return int(token.value)

    def _expect_number(self, role: str | None = None) -> float:
        token = self._advance()
        if token.kind != "NUMBER":
            raise PXQLSyntaxError(
                f"expected a number, got {token.value!r}",
                position=token.position,
            )
        if role is not None:
            self.spans[role] = token.span
        return float(token.value)

    def _expect_eof(self) -> None:
        token = self._peek()
        if token.kind != "EOF":
            raise PXQLSyntaxError(
                f"trailing input from {token.value!r}", position=token.position
            )

    def _optional_target(self) -> str | None:
        if self._accept_keyword("AS"):
            return self._expect_name("target")
        return None

    # -- statements ------------------------------------------------------
    def parse(self) -> ast.Statement:
        if self._accept_keyword("CHECK"):
            statement: ast.Statement = ast.CheckStatement(self._parse_plain())
        elif self._accept_keyword("PROFILE"):
            statement = ast.ProfileStatement(self._parse_plain())
        elif self._accept_keyword("EXPLAIN"):
            lint = self._accept_keyword("LINT") is not None
            analyze = (not lint) and self._accept_keyword("ANALYZE") is not None
            statement = ast.ExplainStatement(analyze, self._parse_plain(), lint)
        elif self._accept_keyword("SET"):
            self._expect_keyword("TIMEOUT")
            seconds = self._expect_number("timeout")
            if seconds < 0:
                raise PXQLSyntaxError("SET TIMEOUT needs seconds >= 0")
            statement = ast.SetStatement("timeout", seconds)
        else:
            statement = self._parse_plain()
        if not isinstance(statement, ast.SetStatement) and self._accept_keyword(
            "WITH"
        ):
            self._expect_keyword("TIMEOUT")
            seconds = self._expect_number("timeout")
            if seconds <= 0:
                raise PXQLSyntaxError("WITH TIMEOUT needs seconds > 0")
            statement = ast.TimeoutStatement(statement, seconds)
        self._expect_eof()
        return statement

    def _parse_plain(self) -> ast.Statement:
        keyword = self._expect_keyword(
            "PROJECT", "SELECT", "PRODUCT", "POINT", "EXISTS", "CHAIN",
            "PROB", "COUNT", "DIST", "WORLDS", "SHOW", "LIST", "DROP",
            "LOAD", "SAVE", "UNROLL", "ESTIMATE",
        )
        return getattr(self, f"_parse_{keyword.lower()}")()

    def _parse_project(self) -> ast.ProjectStatement:
        kind = self._accept_keyword("ANCESTOR", "DESCENDANT", "SINGLE") or "ANCESTOR"
        path = self._expect_path()
        self._expect_keyword("FROM")
        source = self._expect_name("source")
        return ast.ProjectStatement(kind.lower(), path, source, self._optional_target())

    def _parse_select(self) -> ast.SelectStatement:
        path = self._expect_path()
        self._expect_punct("=")
        oid = self._expect_ident("oid")
        value = None
        card_label = None
        card_bounds = None
        prob_op = None
        prob_bound = None
        while self._accept_keyword("AND"):
            clause = self._expect_keyword("VALUE", "CARD", "PROB")
            if clause == "VALUE":
                self._expect_punct("=")
                value = self._expect_literal("value")
            elif clause == "PROB":
                prob_op, prob_bound = self._parse_prob_guard()
            else:
                self._expect_punct("(")
                card_label = self._expect_ident("card")
                self._expect_punct(")")
                self._expect_keyword("IN")
                self._expect_punct("[")
                low = self._expect_int()
                self._expect_punct(",")
                high = self._expect_int()
                self._expect_punct("]")
                card_bounds = (low, high)
        self._expect_keyword("FROM")
        source = self._expect_name("source")
        return ast.SelectStatement(
            path, oid, value, card_label, card_bounds, source,
            self._optional_target(), prob_op, prob_bound,
        )

    def _parse_prob_guard(self) -> tuple[str, float]:
        op_token = self._advance()
        if op_token.kind != "PUNCT" or op_token.value not in _PROB_OPS:
            raise PXQLSyntaxError(
                f"expected one of {', '.join(_PROB_OPS)} after PROB, got "
                f"{op_token.value!r}",
                position=op_token.position,
            )
        bound_token = self._advance()
        if bound_token.kind != "NUMBER":
            raise PXQLSyntaxError(
                f"expected a number after PROB {op_token.value}, got "
                f"{bound_token.value!r}",
                position=bound_token.position,
            )
        self.spans["prob"] = (op_token.position, bound_token.span[1])
        return op_token.value, float(bound_token.value)

    def _parse_product(self) -> ast.ProductStatement:
        left = self._expect_name("left")
        self._expect_punct(",")
        right = self._expect_name("right")
        new_root = None
        if self._accept_keyword("ROOT"):
            new_root = self._expect_ident("root")
        return ast.ProductStatement(left, right, new_root, self._optional_target())

    def _parse_point(self) -> ast.PointStatement:
        path = self._expect_path()
        self._expect_punct(":")
        oid = self._expect_ident("oid")
        self._expect_keyword("IN")
        return ast.PointStatement(path, oid, self._expect_name("source"))

    def _parse_exists(self) -> ast.ExistsStatement:
        path = self._expect_path()
        self._expect_keyword("IN")
        return ast.ExistsStatement(path, self._expect_name("source"))

    def _parse_chain(self) -> ast.ChainStatement:
        dotted = self._expect_ident("chain")
        self._expect_keyword("IN")
        return ast.ChainStatement(tuple(dotted.split(".")), self._expect_name("source"))

    def _parse_prob(self) -> ast.ProbStatement:
        oid = self._expect_ident("oid")
        self._expect_keyword("IN")
        return ast.ProbStatement(oid, self._expect_name("source"))

    def _parse_count(self) -> ast.CountStatement:
        path = self._expect_path()
        self._expect_keyword("IN")
        return ast.CountStatement(path, self._expect_name("source"))

    def _parse_dist(self) -> ast.DistStatement:
        path = self._expect_path()
        self._expect_keyword("IN")
        return ast.DistStatement(path, self._expect_name("source"))

    def _parse_unroll(self) -> ast.UnrollStatement:
        source = self._expect_name("source")
        self._expect_keyword("HORIZON")
        horizon = self._expect_int()
        return ast.UnrollStatement(source, horizon, self._optional_target())

    def _parse_estimate(self) -> ast.EstimateStatement:
        path = self._expect_path()
        oid = None
        token = self._peek()
        if token.kind == "PUNCT" and token.value == ":":
            self._advance()
            oid = self._expect_ident("oid")
        self._expect_keyword("IN")
        source = self._expect_name("source")
        samples = 1000
        if self._accept_keyword("SAMPLES"):
            samples = self._expect_int()
        return ast.EstimateStatement(path, oid, source, samples)

    def _parse_worlds(self) -> ast.WorldsStatement:
        source = self._expect_name("source")
        limit = 20
        if self._accept_keyword("LIMIT"):
            limit = self._expect_int()
        return ast.WorldsStatement(source, limit)

    def _parse_show(self) -> ast.ShowStatement:
        return ast.ShowStatement(self._expect_name("source"))

    def _parse_list(self) -> ast.ListStatement:
        return ast.ListStatement()

    def _parse_drop(self) -> ast.DropStatement:
        return ast.DropStatement(self._expect_name("source"))

    def _parse_load(self) -> ast.LoadStatement:
        name = self._expect_name("target")
        self._expect_keyword("FROM")
        token = self._advance()
        if token.kind != "STRING":
            raise PXQLSyntaxError(
                "LOAD needs a quoted file path", position=token.position
            )
        self.spans["file"] = token.span
        return ast.LoadStatement(name, token.value)

    def _parse_save(self) -> ast.SaveStatement:
        name = self._expect_name("source")
        path = None
        if self._accept_keyword("TO"):
            token = self._advance()
            if token.kind != "STRING":
                raise PXQLSyntaxError(
                    "SAVE ... TO needs a quoted file path",
                    position=token.position,
                )
            self.spans["file"] = token.span
            path = token.value
        return ast.SaveStatement(name, path)


def parse(text: str) -> ast.Statement:
    """Parse one PXQL statement."""
    return _Parser(tokenize(text)).parse()


def parse_spanned(text: str) -> tuple[ast.Statement, SpanMap]:
    """Parse one statement and also return the source spans of its parts.

    The span map keys are semantic roles (``"path"``, ``"oid"``,
    ``"source"``, ``"target"``, ``"left"``, ``"right"``, ``"value"``,
    ``"card"``, ``"prob"``, ``"chain"``, ``"file"``, ``"root"``), each
    mapped to a half-open ``(start, end)`` character range of ``text``.
    """
    parser = _Parser(tokenize(text))
    statement = parser.parse()
    return statement, parser.spans


def parse_memo() -> Callable[[str], tuple[ast.Statement, SpanMap]]:
    """A bounded, thread-safe memo over :func:`parse_spanned`, one per
    owner that sees the same texts again and again (an interpreter, the
    shard router).  The AST is frozen; the span map is shared with it
    and read-only.  Syntax errors are raised every time, not kept."""
    return functools.lru_cache(maxsize=PARSE_MEMO_SIZE)(parse_spanned)
