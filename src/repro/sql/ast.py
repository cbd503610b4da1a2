"""Abstract syntax tree produced by the parser.

The tree is a statement's *shape*: each lifted value literal is a
:class:`Param` naming its binding slot, and the values ride along in
the top-level :attr:`Select.binding` (see
:func:`repro.sql.tokens.normalize_sql`).

AST nodes carry their source offset (``pos``) so the planner can point
at the offending token when validation fails; ``pos`` never takes part
in equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Param(Expr):
    """A lifted literal -- a number, a DATE (days since the TPC-H
    epoch) or an INTERVAL (a day count) -- as its binding slot."""

    slot: int
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class String(Expr):
    value: str
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Column(Expr):
    name: str
    table: str | None = None
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Binary(Expr):
    """Arithmetic (+ - * /) or comparison (= < <= > >= <>) operator."""

    op: str
    left: Expr
    right: Expr
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Logical(Expr):
    """AND chain, flattened."""

    op: str
    terms: tuple[Expr, ...]
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Func(Expr):
    """Aggregate call: SUM/COUNT/AVG/MIN/MAX; ``star`` for COUNT(*)."""

    name: str
    args: tuple[Expr, ...]
    star: bool = False
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class ExtractYear(Expr):
    arg: Expr
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Between(Expr):
    arg: Expr
    low: Expr
    high: Expr
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class InSelect(Expr):
    arg: Expr
    select: "Select"
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Like(Expr):
    arg: Expr
    pattern: str
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: str | None = None
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: str | None = None
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class DerivedTable:
    select: "Select"
    alias: str
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Select:
    items: tuple[SelectItem, ...]
    tables: tuple[TableRef | DerivedTable, ...]
    where: Expr | None = None
    group_by: tuple[Column, ...] = ()
    having: Expr | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    pos: int = field(default=-1, compare=False)
    #: The slots' values, on the statement's top-level select only.
    binding: tuple = field(default=(), compare=False, repr=False)
