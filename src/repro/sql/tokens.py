"""Tokenizer for the documented SQL dialect, and the split of a
statement into its shape and its binding.

The dialect is exactly what :mod:`repro.tpch.sql` documents: SELECT
lists with arithmetic and SUM/COUNT/AVG aggregates, comma joins,
AND-ed comparison predicates, BETWEEN/IN/LIKE, DATE and INTERVAL
literals, GROUP BY / HAVING / ORDER BY / LIMIT.  Keywords are
case-insensitive; identifiers are case-folded to lower case.
"""

from __future__ import annotations

import datetime
import re
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.sql.errors import SqlError, err
from repro.tpch.schema import DATE_EPOCH

KEYWORDS = frozenset(
    {
        "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "GROUP", "BY",
        "HAVING", "ORDER", "ASC", "DESC", "LIMIT", "AS", "SUM", "COUNT",
        "AVG", "MIN", "MAX", "BETWEEN", "IN", "LIKE", "DATE", "INTERVAL",
        "DAY", "MONTH", "YEAR", "EXTRACT",
    }
)

OPERATORS = ("<=", ">=", "<>", "!=", "=", "<", ">", "+", "-", "*", "/")
PUNCTUATION = ("(", ")", ",", ";", ".")

KIND_KEYWORD = "keyword"
KIND_IDENT = "ident"
KIND_NUMBER = "number"
KIND_STRING = "string"
KIND_OP = "op"
KIND_EOF = "eof"


class Token(NamedTuple):
    """One lexeme with its source offset (for error carets)."""

    kind: str
    text: str
    pos: int
    value: object = None
    #: Binding slot of a lifted literal (see :func:`normalize_sql`).
    slot: int | None = None

    def is_keyword(self, *names: str) -> bool:
        return self.kind == KIND_KEYWORD and self.text in names

    def is_op(self, *ops: str) -> bool:
        return self.kind == KIND_OP and self.text in ops


#: Runs taken whole: ``\s`` is ``str.isspace`` and ``\w`` is
#: ``str.isalnum() or "_"``, character for character.
_SPACES = re.compile(r"\s+")
_WORD_TAIL = re.compile(r"\w*")
_TWO_CHAR_OPS = frozenset(op for op in OPERATORS if len(op) == 2)
_ONE_CHAR_OPS = frozenset(op for op in OPERATORS + PUNCTUATION if len(op) == 1)


def tokenize(sql: str) -> list[Token]:
    """Lex ``sql`` into tokens, raising :class:`SqlError` on bad input."""
    tokens: list[Token] = []
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i = _SPACES.match(sql, i).end()
            continue
        if sql.startswith("--", i):  # line comment
            newline = sql.find("\n", i)
            i = n if newline < 0 else newline + 1
            continue
        if ch.isalpha() or ch == "_":
            start, i = i, _WORD_TAIL.match(sql, i + 1).end()
            word = sql[start:i]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(KIND_KEYWORD, upper, start))
            else:
                tokens.append(Token(KIND_IDENT, word.lower(), start))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            start = i
            while i < n and (sql[i].isdigit() or sql[i] == "."):
                i += 1
            text = sql[start:i]
            if text.count(".") > 1:
                raise err(f"malformed number {text!r}", sql, start)
            tokens.append(Token(KIND_NUMBER, text, start, float(text)))
            continue
        if ch == "'":
            close = sql.find("'", i + 1)
            if close < 0:
                raise err("unterminated string literal", sql, i)
            tokens.append(Token(KIND_STRING, sql[i:close + 1], i, sql[i + 1:close]))
            i = close + 1
            continue
        # Two-character operators first, so ``<=`` never lexes as ``<`` ``=``.
        op = sql[i:i + 2]
        if op not in _TWO_CHAR_OPS:
            op = ch
            if op not in _ONE_CHAR_OPS:
                raise err(f"unexpected character {ch!r}", sql, i)
        tokens.append(Token(KIND_OP, op, i))
        i += len(op)
    tokens.append(Token(KIND_EOF, "", n))
    return tokens


_EPOCH = datetime.date.fromisoformat(DATE_EPOCH)


def _literal_value(keyword: str, token: Token, sql: str) -> float:
    """The number a DATE (days since the TPC-H epoch) or INTERVAL
    (a day count) string stands for."""
    text = str(token.value)
    if keyword == "DATE":
        try:
            day = datetime.date.fromisoformat(text)
        except ValueError:
            raise err(
                f"malformed date {text!r} (expected yyyy-mm-dd)", sql, token.pos
            ) from None
        return float((day - _EPOCH).days)
    try:
        return float(int(text))
    except ValueError:
        raise err(f"malformed interval count {text!r}", sql, token.pos) from None


@dataclass(frozen=True)
class Statement:
    """One statement split into its shape and its binding.

    The ``shape`` is the canonical token text with every value literal
    replaced by a numbered slot: each number but LIMIT's count becomes
    ``?n``, and each DATE or INTERVAL string ``'?n'``.  The ``binding``
    holds the slots' values in order, as the plan sees them: numbers as
    floats, dates as days since the TPC-H epoch, intervals as day
    counts.  Strings compared with a column, LIKE patterns, ``IN
    (subquery)`` and LIMIT stay in the shape (the planner turns the
    strings into dictionary codes, so they shape the plan).

    ``tokens`` is the shape's token stream (a lifted literal carries its
    ``slot``), which :func:`~repro.sql.parser.parse` consumes without
    lexing again.  A malformed DATE or INTERVAL string binds to None;
    its token's value and ``error`` (the first one's) hold the
    :class:`SqlError` the parser raises on reaching it.
    """

    shape: str
    binding: tuple
    sql: str = field(compare=False, repr=False)
    tokens: list = field(compare=False, repr=False)
    error: SqlError | None = field(default=None, compare=False, repr=False)


def normalize_sql(sql: str) -> Statement:
    """Tokenize ``sql`` once and split it into shape and binding.

    Statements that differ only in formatting, case or ``!=`` against
    ``<>`` have one shape; statements that differ only in lifted
    literals share a shape and differ in binding.  The query service
    plans each shape once (:class:`~repro.sql.PlanCache`).
    """
    if not sql or not sql.strip():
        raise SqlError("empty statement")
    tokens = tokenize(sql)
    parts: list[str] = []
    binding: list = []
    error = None
    previous = ""  # keyword text of the token before, else ""
    for index, token in enumerate(tokens):
        kind = token.kind
        if kind == KIND_NUMBER and previous != "LIMIT":
            parts.append(f"?{len(binding)}")
            tokens[index] = Token(kind, token.text, token.pos, token.value, len(binding))
            binding.append(token.value)
        elif kind == KIND_STRING and previous in ("DATE", "INTERVAL"):
            try:
                value = _literal_value(previous, token, sql)
            except SqlError as exc:
                value = exc
                error = error or exc
            parts.append(f"'?{len(binding)}'")
            tokens[index] = Token(kind, token.text, token.pos, value, len(binding))
            binding.append(None if isinstance(value, SqlError) else value)
        elif kind == KIND_NUMBER:
            parts.append(repr(token.value))
        elif kind == KIND_OP and token.text == "!=":
            parts.append("<>")
        elif kind != KIND_EOF:
            parts.append(token.text)
        previous = token.text if kind == KIND_KEYWORD else ""
    # A trailing semicolon is optional and never changes the statement.
    while parts and parts[-1] == ";":
        parts.pop()
    return Statement(" ".join(parts), tuple(binding), sql, tokens, error)
