"""Recursive-descent parser for the documented SQL dialect.

Grammar (keywords case-insensitive)::

    statement   := select ';'? EOF
    select      := SELECT item (',' item)*
                   FROM table_ref (',' table_ref)*
                   [WHERE expr] [GROUP BY column (',' column)*]
                   [HAVING expr] [ORDER BY order (',' order)*]
                   [LIMIT number]
    item        := expr [AS ident]
    table_ref   := ident [[AS] ident] | '(' select ')' [AS] ident
    order       := expr [ASC | DESC]
    expr        := cmp (AND cmp)*
    cmp         := add [(= | < | <= | > | >= | <> | !=) add
                        | BETWEEN add AND add
                        | IN '(' select ')'
                        | LIKE string]
    add         := mul (('+' | '-') mul)*
    mul         := unary (('*' | '/') unary)*
    unary       := '-' unary | primary
    primary     := number | string | DATE string | INTERVAL string DAY
                 | (SUM|COUNT|AVG|MIN|MAX) '(' ('*' | expr) ')'
                 | EXTRACT '(' YEAR FROM expr ')'
                 | ident ['.' ident] | '(' expr ')'

The parser reads a statement's shape (:func:`~repro.sql.tokens.
normalize_sql`): numbers, DATE strings (days since the TPC-H epoch,
1992-01-01) and INTERVAL counts become :class:`~repro.sql.ast.Param`
slots whose values the planner substitutes last (:func:`repro.sql.
planner.bind`).  A malformed DATE or INTERVAL string raises where the
parser reaches it, so the first error in the text is the one reported.
"""

from __future__ import annotations

import dataclasses

from repro.sql import ast
from repro.sql.errors import SqlError, err
from repro.sql.tokens import (
    KIND_EOF,
    KIND_IDENT,
    KIND_NUMBER,
    KIND_STRING,
    Statement,
    Token,
    normalize_sql,
)

AGGREGATE_FUNCS = ("SUM", "COUNT", "AVG", "MIN", "MAX")


class _Parser:
    def __init__(self, statement: Statement):
        self.sql = statement.sql
        self.tokens = statement.tokens
        self.index = 0

    # -- token stream helpers ------------------------------------------
    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.current
        if token.kind != KIND_EOF:
            self.index += 1
        return token

    def accept_keyword(self, *names: str) -> Token | None:
        if self.current.is_keyword(*names):
            return self.advance()
        return None

    def accept_op(self, *ops: str) -> Token | None:
        if self.current.is_op(*ops):
            return self.advance()
        return None

    def expect_keyword(self, name: str) -> Token:
        token = self.accept_keyword(name)
        if token is None:
            raise self.failure(f"expected {name}")
        return token

    def expect_op(self, op: str) -> Token:
        token = self.accept_op(op)
        if token is None:
            raise self.failure(f"expected {op!r}")
        return token

    def expect_ident(self, what: str = "identifier") -> Token:
        if self.current.kind != KIND_IDENT:
            raise self.failure(f"expected {what}")
        return self.advance()

    def param(self, literal: Token, keyword: Token) -> ast.Param:
        """The slot of a DATE or INTERVAL string, or its literal error."""
        if isinstance(literal.value, SqlError):
            raise literal.value
        return ast.Param(slot=literal.slot, pos=keyword.pos)

    def failure(self, expected: str) -> SqlError:
        token = self.current
        found = "end of input" if token.kind == KIND_EOF else repr(token.text)
        return err(f"{expected}, found {found}", self.sql, token.pos)

    # -- grammar -------------------------------------------------------
    def parse_statement(self) -> ast.Select:
        select = self.parse_select()
        self.accept_op(";")
        if self.current.kind != KIND_EOF:
            raise self.failure("expected end of statement")
        return select

    def parse_select(self) -> ast.Select:
        start = self.expect_keyword("SELECT")
        items = [self.parse_select_item()]
        while self.accept_op(","):
            items.append(self.parse_select_item())
        self.expect_keyword("FROM")
        tables = [self.parse_table_ref()]
        while self.accept_op(","):
            tables.append(self.parse_table_ref())
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        group_by: list[ast.Column] = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self.parse_column_ref())
            while self.accept_op(","):
                group_by.append(self.parse_column_ref())
        having = self.parse_expr() if self.accept_keyword("HAVING") else None
        order_by: list[ast.OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self.parse_order_item())
            while self.accept_op(","):
                order_by.append(self.parse_order_item())
        limit = None
        if self.accept_keyword("LIMIT"):
            token = self.current
            if token.kind != KIND_NUMBER or float(token.value) != int(token.value):
                raise self.failure("expected integer LIMIT count")
            self.advance()
            limit = int(token.value)
        return ast.Select(
            items=tuple(items),
            tables=tuple(tables),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            pos=start.pos,
        )

    def parse_select_item(self) -> ast.SelectItem:
        pos = self.current.pos
        expr = self.parse_expr()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident("alias after AS").text
        elif self.current.kind == KIND_IDENT:
            alias = self.advance().text
        return ast.SelectItem(expr=expr, alias=alias, pos=pos)

    def parse_table_ref(self) -> ast.TableRef | ast.DerivedTable:
        if self.accept_op("("):
            select = self.parse_select()
            self.expect_op(")")
            self.accept_keyword("AS")
            alias = self.expect_ident("derived-table alias").text
            return ast.DerivedTable(select=select, alias=alias, pos=select.pos)
        token = self.expect_ident("table name")
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident("alias after AS").text
        elif self.current.kind == KIND_IDENT:
            alias = self.advance().text
        return ast.TableRef(name=token.text, alias=alias, pos=token.pos)

    def parse_column_ref(self) -> ast.Column:
        token = self.expect_ident("column name")
        if self.accept_op("."):
            column = self.expect_ident("column name after '.'")
            return ast.Column(name=column.text, table=token.text, pos=token.pos)
        return ast.Column(name=token.text, pos=token.pos)

    def parse_order_item(self) -> ast.OrderItem:
        pos = self.current.pos
        expr = self.parse_expr()
        descending = False
        if self.accept_keyword("DESC"):
            descending = True
        else:
            self.accept_keyword("ASC")
        return ast.OrderItem(expr=expr, descending=descending, pos=pos)

    def parse_expr(self) -> ast.Expr:
        pos = self.current.pos
        terms = [self.parse_comparison()]
        while self.accept_keyword("AND"):
            terms.append(self.parse_comparison())
        if len(terms) == 1:
            return terms[0]
        flat: list[ast.Expr] = []
        for term in terms:
            if isinstance(term, ast.Logical) and term.op == "AND":
                flat.extend(term.terms)
            else:
                flat.append(term)
        return ast.Logical(op="AND", terms=tuple(flat), pos=pos)

    def parse_comparison(self) -> ast.Expr:
        left = self.parse_additive()
        token = self.current
        if token.is_op("=", "<", "<=", ">", ">=", "<>", "!="):
            self.advance()
            right = self.parse_additive()
            op = "<>" if token.text == "!=" else token.text
            return ast.Binary(op=op, left=left, right=right, pos=token.pos)
        if token.is_keyword("BETWEEN"):
            self.advance()
            low = self.parse_additive()
            self.expect_keyword("AND")
            high = self.parse_additive()
            return ast.Between(arg=left, low=low, high=high, pos=token.pos)
        if token.is_keyword("IN"):
            self.advance()
            self.expect_op("(")
            select = self.parse_select()
            self.expect_op(")")
            return ast.InSelect(arg=left, select=select, pos=token.pos)
        if token.is_keyword("LIKE"):
            self.advance()
            pattern = self.current
            if pattern.kind != KIND_STRING:
                raise self.failure("expected string pattern after LIKE")
            self.advance()
            return ast.Like(arg=left, pattern=str(pattern.value), pos=token.pos)
        return left

    def parse_additive(self) -> ast.Expr:
        expr = self.parse_multiplicative()
        while True:
            token = self.accept_op("+", "-")
            if token is None:
                return expr
            right = self.parse_multiplicative()
            expr = ast.Binary(op=token.text, left=expr, right=right, pos=token.pos)

    def parse_multiplicative(self) -> ast.Expr:
        expr = self.parse_unary()
        while True:
            token = self.accept_op("*", "/")
            if token is None:
                return expr
            right = self.parse_unary()
            expr = ast.Binary(op=token.text, left=expr, right=right, pos=token.pos)

    def parse_unary(self) -> ast.Expr:
        token = self.accept_op("-")
        if token is not None:
            return ast.Neg(arg=self.parse_unary(), pos=token.pos)
        return self.parse_primary()

    def parse_primary(self) -> ast.Expr:
        token = self.current
        if token.kind == KIND_NUMBER:
            self.advance()
            return ast.Param(slot=token.slot, pos=token.pos)
        if token.kind == KIND_STRING:
            self.advance()
            return ast.String(value=str(token.value), pos=token.pos)
        if token.is_keyword("DATE"):
            self.advance()
            literal = self.current
            if literal.kind != KIND_STRING:
                raise self.failure("expected date string after DATE")
            self.advance()
            return self.param(literal, token)
        if token.is_keyword("INTERVAL"):
            self.advance()
            literal = self.current
            if literal.kind != KIND_STRING:
                raise self.failure("expected quoted count after INTERVAL")
            self.advance()
            unit = self.current
            if not unit.is_keyword("DAY"):
                raise self.failure("expected DAY (the only supported interval unit)")
            self.advance()
            return self.param(literal, token)
        if token.is_keyword("EXTRACT"):
            self.advance()
            self.expect_op("(")
            self.expect_keyword("YEAR")
            self.expect_keyword("FROM")
            arg = self.parse_expr()
            self.expect_op(")")
            return ast.ExtractYear(arg=arg, pos=token.pos)
        if token.is_keyword(*AGGREGATE_FUNCS):
            self.advance()
            self.expect_op("(")
            if self.accept_op("*"):
                self.expect_op(")")
                if token.text != "COUNT":
                    raise err(f"{token.text}(*) is not valid SQL", self.sql, token.pos)
                return ast.Func(name="count", args=(), star=True, pos=token.pos)
            arg = self.parse_expr()
            self.expect_op(")")
            return ast.Func(name=token.text.lower(), args=(arg,), pos=token.pos)
        if token.kind == KIND_IDENT:
            return self.parse_column_ref()
        if token.is_op("("):
            self.advance()
            expr = self.parse_expr()
            self.expect_op(")")
            return expr
        raise self.failure("expected expression")


def parse(sql: str | Statement) -> ast.Select:
    """Parse one SELECT statement (text, or its :func:`normalize_sql`
    split) into the AST of its shape, carrying its binding."""
    statement = sql if isinstance(sql, Statement) else normalize_sql(sql)
    select = _Parser(statement).parse_statement()
    return dataclasses.replace(select, binding=statement.binding)
