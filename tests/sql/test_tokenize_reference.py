"""The tokenizer against the character-at-a-time loop it replaced.

``tokenize`` takes whitespace and identifier runs with regular
expressions (``\\s`` is ``str.isspace`` and ``\\w`` is ``str.isalnum``
or ``_``, character for character), finds a string's closing quote
with ``str.find`` and looks operators up in sets.  The loop below is
the reference: on any text both must yield the same tokens or raise
the same exception with the same message.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql import SqlError, tokenize
from repro.sql.tokens import (
    KEYWORDS,
    KIND_EOF,
    KIND_IDENT,
    KIND_KEYWORD,
    KIND_NUMBER,
    KIND_OP,
    KIND_STRING,
    OPERATORS,
    PUNCTUATION,
)
from repro.sql.errors import err
from repro.tpch.sql import EXTENDED_TPCH_SQL, TPCH_SQL


def reference_tokenize(sql: str) -> list[tuple]:
    tokens = []
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if sql.startswith("--", i):
            newline = sql.find("\n", i)
            i = n if newline < 0 else newline + 1
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (sql[i].isalnum() or sql[i] == "_"):
                i += 1
            word = sql[start:i]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append((KIND_KEYWORD, upper, start, None))
            else:
                tokens.append((KIND_IDENT, word.lower(), start, None))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            start = i
            while i < n and (sql[i].isdigit() or sql[i] == "."):
                i += 1
            text = sql[start:i]
            if text.count(".") > 1:
                raise err(f"malformed number {text!r}", sql, start)
            tokens.append((KIND_NUMBER, text, start, float(text)))
            continue
        if ch == "'":
            start = i
            i += 1
            while i < n and sql[i] != "'":
                i += 1
            if i >= n:
                raise err("unterminated string literal", sql, start)
            tokens.append((KIND_STRING, sql[start:i + 1], start, sql[start + 1:i]))
            i += 1
            continue
        for op in OPERATORS + PUNCTUATION:
            if sql.startswith(op, i):
                tokens.append((KIND_OP, op, i, None))
                i += len(op)
                break
        else:
            raise err(f"unexpected character {ch!r}", sql, i)
    tokens.append((KIND_EOF, "", n, None))
    return tokens


def _lexed(sql: str) -> list[tuple]:
    return [(t.kind, t.text, t.pos, t.value) for t in tokenize(sql)]


def _outcome(lex, sql: str):
    try:
        return lex(sql)
    except (SqlError, ValueError) as exc:
        return (type(exc), str(exc))


#: Characters the loop treats specially, and Unicode ones on which
#: ``isalpha`` / ``isdigit`` / ``isalnum`` / ``isspace`` disagree.
ALPHABET = (
    "aZ_q09.'-<>=!+*/(),;\n\t "
    "é²½١ \u001c Ⅷ̀ª"
)


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=40))
def test_matches_the_reference_on_any_text(sql):
    assert _outcome(_lexed, sql) == _outcome(reference_tokenize, sql)


def test_matches_the_reference_on_the_documented_sql():
    for sql in (*TPCH_SQL.values(), *EXTENDED_TPCH_SQL.values()):
        assert _outcome(_lexed, sql) == _outcome(reference_tokenize, sql)
