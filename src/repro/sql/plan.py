"""Typed logical-plan IR: Scan -> Filter -> Join -> Aggregate -> Project.

Every node is a frozen dataclass built from tuples only, so plans are
hashable and compare structurally -- the lowering layer matches incoming
plans against the plans of the documented workload SQL by plain
equality or by structural inspection.

Column references are fully qualified (``ColRef(table, column)``); the
planner resolves bare names against the FROM tables' schemas before any
plan node is built, so an IR tree is always schema-valid by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

# ----------------------------------------------------------------------
# Scalar expressions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ColRef:
    """A resolved column: ``table`` is a base table or derived-table alias."""

    table: str
    column: str

    def __str__(self) -> str:
        return f"{self.table}.{self.column}"


@dataclass(frozen=True)
class ColumnExpr:
    ref: ColRef

    def __str__(self) -> str:
        return str(self.ref)


@dataclass(frozen=True)
class ConstExpr:
    value: float

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class ParamExpr:
    """A literal of a statement shape: slot ``slot`` of the binding
    (only in shape plans; :func:`repro.sql.planner.bind` replaces it)."""

    slot: int

    def __str__(self) -> str:
        return f"?{self.slot}"


@dataclass(frozen=True)
class NegExpr:
    """``-arg`` of a constant ``arg`` (only in shape plans; ``bind``
    folds it to the constant ``-v``)."""

    arg: "ScalarExpr"

    def __str__(self) -> str:
        return f"-{self.arg}"


@dataclass(frozen=True)
class Arith:
    op: str
    left: "ScalarExpr"
    right: "ScalarExpr"

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class YearOf:
    """EXTRACT(YEAR FROM date-column) over epoch-day storage."""

    arg: "ScalarExpr"

    def __str__(self) -> str:
        return f"year({self.arg})"


@dataclass(frozen=True)
class AggCall:
    """sum/count/avg/min/max; ``arg`` is None for COUNT(*)."""

    func: str
    arg: Union["ScalarExpr", None]

    def __str__(self) -> str:
        return f"{self.func}({'*' if self.arg is None else self.arg})"


ScalarExpr = Union[ColumnExpr, ConstExpr, ParamExpr, NegExpr, Arith, YearOf, AggCall]


@dataclass(frozen=True)
class NamedExpr:
    """One output column of an Aggregate/Project node."""

    name: str
    expr: ScalarExpr

    def __str__(self) -> str:
        return f"{self.expr} AS {self.name}"


# ----------------------------------------------------------------------
# Predicates
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Compare:
    left: ScalarExpr
    op: str
    right: ScalarExpr

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class InSubquery:
    expr: ScalarExpr
    subplan: "PlanNode"

    def __str__(self) -> str:
        return f"{self.expr} IN (<subquery>)"


Predicate = Union[Compare, InSubquery]


# ----------------------------------------------------------------------
# Plan nodes
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Scan:
    table: str


@dataclass(frozen=True)
class Filter:
    child: "PlanNode"
    predicates: tuple[Predicate, ...]


@dataclass(frozen=True)
class Join:
    """Equi-join; ``pairs`` are (left-side, right-side) key columns."""

    left: "PlanNode"
    right: "PlanNode"
    pairs: tuple[tuple[ColRef, ColRef], ...]


@dataclass(frozen=True)
class Aggregate:
    """Group-by + aggregation; ``outputs`` is the full select list."""

    child: "PlanNode"
    group_by: tuple[ColRef, ...]
    outputs: tuple[NamedExpr, ...]
    having: Predicate | None = None


@dataclass(frozen=True)
class Project:
    child: "PlanNode"
    outputs: tuple[NamedExpr, ...]


@dataclass(frozen=True)
class OrderBy:
    child: "PlanNode"
    keys: tuple[tuple[str, bool], ...]  # (output name, descending)


@dataclass(frozen=True)
class Limit:
    child: "PlanNode"
    count: int


@dataclass(frozen=True)
class SubqueryScan:
    """A derived table: a nested plan exposed under an alias."""

    alias: str
    plan: "PlanNode"


PlanNode = Union[Scan, Filter, Join, Aggregate, Project, OrderBy, Limit, SubqueryScan]


# ----------------------------------------------------------------------
# Introspection helpers
# ----------------------------------------------------------------------


def output_names(plan: PlanNode) -> tuple[str, ...]:
    """Names of the columns a plan node produces."""
    if isinstance(plan, (Aggregate, Project)):
        return tuple(out.name for out in plan.outputs)
    if isinstance(plan, (OrderBy, Limit)):
        return output_names(plan.child)
    if isinstance(plan, SubqueryScan):
        return output_names(plan.plan)
    raise TypeError(f"{type(plan).__name__} has no named output list")


def strip_decorations(plan: PlanNode) -> PlanNode:
    """The plan without its OrderBy/Limit wrappers (result-set order and
    truncation do not change which engine path a query binds to)."""
    while isinstance(plan, (OrderBy, Limit)):
        plan = plan.child
    return plan


def flatten_sum(expr: ScalarExpr) -> list[ScalarExpr]:
    """``a + b + c`` -> [a, b, c] (returns [expr] for non-additions)."""
    if isinstance(expr, Arith) and expr.op == "+":
        return flatten_sum(expr.left) + flatten_sum(expr.right)
    return [expr]


def to_text(plan: PlanNode, indent: int = 0) -> str:
    """Indented tree rendering (for the REPL, examples and docs)."""
    pad = "  " * indent
    if isinstance(plan, Scan):
        return f"{pad}Scan({plan.table})"
    if isinstance(plan, Filter):
        preds = " AND ".join(str(p) for p in plan.predicates)
        return f"{pad}Filter[{preds}]\n{to_text(plan.child, indent + 1)}"
    if isinstance(plan, Join):
        pairs = ", ".join(f"{a} = {b}" for a, b in plan.pairs)
        return (
            f"{pad}Join[{pairs}]\n"
            f"{to_text(plan.left, indent + 1)}\n"
            f"{to_text(plan.right, indent + 1)}"
        )
    if isinstance(plan, Aggregate):
        keys = ", ".join(str(k) for k in plan.group_by) or "<all rows>"
        outs = ", ".join(str(o) for o in plan.outputs)
        lines = f"{pad}Aggregate[group by {keys}]({outs})"
        if plan.having is not None:
            lines += f"\n{pad}  having {plan.having}"
        return f"{lines}\n{to_text(plan.child, indent + 1)}"
    if isinstance(plan, Project):
        outs = ", ".join(str(o) for o in plan.outputs)
        return f"{pad}Project({outs})\n{to_text(plan.child, indent + 1)}"
    if isinstance(plan, OrderBy):
        keys = ", ".join(f"{name}{' DESC' if desc else ''}" for name, desc in plan.keys)
        return f"{pad}OrderBy({keys})\n{to_text(plan.child, indent + 1)}"
    if isinstance(plan, Limit):
        return f"{pad}Limit({plan.count})\n{to_text(plan.child, indent + 1)}"
    if isinstance(plan, SubqueryScan):
        return f"{pad}SubqueryScan({plan.alias})\n{to_text(plan.plan, indent + 1)}"
    raise TypeError(f"unknown plan node {type(plan).__name__}")
