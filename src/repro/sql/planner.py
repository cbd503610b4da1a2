"""Binder/planner: AST -> validated logical plan.

Resolves every column against :data:`repro.tpch.schema.SCHEMAS` (or a
derived table's output list), classifies WHERE conjuncts into
single-table filters and equi-join pairs, pushes filters below the
joins, builds a deterministic left-deep join tree, and wraps the result
in Aggregate/Project, OrderBy and Limit nodes.

Validation failures raise :class:`~repro.sql.errors.SqlError` carrying
the offending token's position.

Planning works on a statement's *shape*: literal leaves become
:class:`~repro.sql.plan.ParamExpr` slots and no arithmetic is folded.
:func:`bind` then substitutes one binding and folds constants, so a
fresh literal costs a bind, not a parse and a plan.

Dictionary-encoded strings: the stored schema keeps ``p_name`` as the
integer category column ``p_namecat`` (see :mod:`repro.tpch.schema`),
so ``p_name LIKE '%green%'`` -- the only string predicate in the
documented workloads -- rewrites to ``p_namecat = GREEN_CATEGORY``.
"""

from __future__ import annotations

import dataclasses

from repro.sql import ast
from repro.sql import plan as ir
from repro.sql.errors import SqlError, err
from repro.tpch.schema import (
    GREEN_CATEGORY,
    LINESTATUS_CODES,
    NATION_NAMES,
    REGION_NAMES,
    RETURNFLAG_CODES,
    SCHEMAS,
)

_COMPARISON_OPS = ("=", "<", "<=", ">", ">=", "<>")
_MIRROR = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}

#: Columns that exist in TPC-H but are stored dictionary-encoded under
#: another name; they resolve only inside a rewritable LIKE predicate.
VIRTUAL_COLUMNS = {"part": ("p_name",)}

#: TPC-H columns that are functionally one-to-one with a stored column
#: (``c_name`` is textually derived from ``c_custkey``); they resolve
#: to the stored column but keep their own output name.
ALIAS_COLUMNS = {"customer": {"c_name": "c_custkey"}}

#: (table, virtual column, pattern) -> (stored column, code).
LIKE_REWRITES = {
    ("part", "p_name", "%green%"): ("p_namecat", float(GREEN_CATEGORY)),
}

#: Dictionary-encoded columns whose string equality predicates rewrite
#: to integer-code comparisons (the decode tables live in the schema,
#: so ``r_name = 'ASIA'`` becomes ``r_name = 2.0`` losslessly).
STRING_EQUALITY_CODES: dict[tuple[str, str], dict[str, float]] = {
    ("region", "r_name"): {
        name: float(code) for code, name in enumerate(REGION_NAMES)
    },
    ("nation", "n_name"): {
        name: float(code) for code, name in enumerate(NATION_NAMES)
    },
    ("lineitem", "l_returnflag"): {
        name: float(code) for name, code in RETURNFLAG_CODES.items()
    },
    ("lineitem", "l_linestatus"): {
        name: float(code) for name, code in LINESTATUS_CODES.items()
    },
}


class _Scope:
    """One FROM item: a base table or a derived table."""

    def __init__(self, name, columns, node, base_table=None, pos=-1):
        self.name = name
        self.columns = tuple(columns)
        self.node = node
        self.base_table = base_table  # underlying schema table, if any
        self.virtual = VIRTUAL_COLUMNS.get(base_table, ())
        self.aliases = ALIAS_COLUMNS.get(base_table, {})
        self.pos = pos
        self.filters: list[ir.Predicate] = []

    def filtered_node(self) -> ir.PlanNode:
        if self.filters:
            return ir.Filter(child=self.node, predicates=tuple(self.filters))
        return self.node


class Planner:
    """Plans one SELECT statement against the TPC-H schema."""

    def __init__(self, schemas=None):
        self.schemas = schemas if schemas is not None else SCHEMAS

    def plan(self, select: ast.Select, sql: str | None = None) -> ir.PlanNode:
        """The plan of the statement ``select`` was parsed from: its
        shape plan bound to ``select.binding``."""
        return bind(self.plan_shape(select, sql), select.binding)

    def plan_shape(self, select: ast.Select, sql: str | None = None) -> ir.PlanNode:
        """The plan of ``select``'s shape: every literal leaf is a
        :class:`~repro.sql.plan.ParamExpr`, every constant unfolded."""
        return _Binder(self, sql).bind(select)


class _Binder:
    def __init__(self, planner: Planner, sql: str | None):
        self.planner = planner
        self.sql = sql

    def error(self, message: str, pos: int = -1) -> SqlError:
        return err(message, self.sql, pos if pos >= 0 else None)

    # -- FROM ----------------------------------------------------------
    def bind(self, select: ast.Select) -> ir.PlanNode:
        scopes = [self._bind_table(table) for table in select.tables]
        seen: set[str] = set()
        for scope in scopes:
            if scope.name in seen:
                raise self.error(f"duplicate table {scope.name!r} in FROM", scope.pos)
            seen.add(scope.name)

        join_pairs = self._classify_where(select.where, scopes)
        tree = self._join_tree(scopes, join_pairs, select)
        outputs, has_agg = self._bind_outputs(select, scopes)
        group_refs = tuple(
            dict.fromkeys(self._resolve(col, scopes).ref for col in select.group_by)
        )
        having = self._bind_having(select.having, scopes, group_refs)

        if has_agg or group_refs or having is not None:
            self._validate_grouped(outputs, group_refs, select)
            node: ir.PlanNode = ir.Aggregate(
                child=tree, group_by=group_refs, outputs=outputs, having=having
            )
        else:
            node = ir.Project(child=tree, outputs=outputs)

        if select.order_by:
            keys = tuple(
                (self._order_key(item, outputs, scopes), item.descending)
                for item in select.order_by
            )
            node = ir.OrderBy(child=node, keys=keys)
        if select.limit is not None:
            node = ir.Limit(child=node, count=select.limit)
        return node

    def _bind_table(self, table) -> _Scope:
        if isinstance(table, ast.DerivedTable):
            subplan = self.bind(table.select)
            return _Scope(
                name=table.alias,
                columns=ir.output_names(subplan),
                node=ir.SubqueryScan(alias=table.alias, plan=subplan),
                pos=table.pos,
            )
        if table.name not in self.planner.schemas:
            raise self.error(
                f"unknown table {table.name!r}; available: "
                f"{sorted(self.planner.schemas)}",
                table.pos,
            )
        schema = self.planner.schemas[table.name]
        return _Scope(
            name=table.alias or table.name,
            columns=schema.column_names,
            node=ir.Scan(table=table.name),
            base_table=table.name,
            pos=table.pos,
        )

    # -- name resolution ----------------------------------------------
    def _resolve(self, column: ast.Column, scopes, virtual_ok=False) -> ir.ColumnExpr:
        matches = []
        for scope in scopes:
            if column.table is not None and column.table != scope.name:
                continue
            if column.name in scope.columns or column.name in scope.aliases:
                matches.append(scope)
            elif virtual_ok and column.name in scope.virtual:
                matches.append(scope)
        if not matches:
            if any(column.name in scope.virtual for scope in scopes):
                raise self.error(
                    f"column {column.name!r} is dictionary-encoded; only the "
                    f"documented LIKE predicate is supported on it",
                    column.pos,
                )
            where = (
                f"table {column.table!r}" if column.table is not None
                else "any FROM table"
            )
            raise self.error(f"unknown column {column.name!r} in {where}", column.pos)
        if len(matches) > 1:
            names = sorted(scope.name for scope in matches)
            raise self.error(
                f"ambiguous column {column.name!r} (in {names}); qualify it",
                column.pos,
            )
        scope = matches[0]
        stored = scope.aliases.get(column.name, column.name)
        return ir.ColumnExpr(ref=ir.ColRef(table=scope.name, column=stored))

    def _scope_of(self, name: str, scopes) -> _Scope:
        for scope in scopes:
            if scope.name == name:
                return scope
        raise KeyError(name)

    # -- scalar expressions -------------------------------------------
    def _convert(self, expr: ast.Expr, scopes, agg_ok: bool) -> ir.ScalarExpr:
        if isinstance(expr, ast.Param):
            return ir.ParamExpr(slot=expr.slot)
        if isinstance(expr, ast.String):
            raise self.error(
                "string literals are only valid in LIKE, DATE and INTERVAL",
                expr.pos,
            )
        if isinstance(expr, ast.Column):
            return self._resolve(expr, scopes)
        if isinstance(expr, ast.Neg):
            arg = self._convert(expr.arg, scopes, agg_ok)
            if _is_constant(arg):
                return ir.NegExpr(arg=arg)
            return ir.Arith(op="*", left=ir.ConstExpr(value=-1.0), right=arg)
        if isinstance(expr, ast.Binary):
            if expr.op in _COMPARISON_OPS:
                raise self.error("comparison not allowed in a value expression", expr.pos)
            left = self._convert(expr.left, scopes, agg_ok)
            right = self._convert(expr.right, scopes, agg_ok)
            return ir.Arith(op=expr.op, left=left, right=right)
        if isinstance(expr, ast.Func):
            if not agg_ok:
                raise self.error(
                    f"aggregate {expr.name.upper()}() is not allowed here", expr.pos
                )
            if expr.star:
                return ir.AggCall(func="count", arg=None)
            arg = self._convert(expr.args[0], scopes, agg_ok=False)
            return ir.AggCall(func=expr.name, arg=arg)
        if isinstance(expr, ast.ExtractYear):
            return ir.YearOf(arg=self._convert(expr.arg, scopes, agg_ok=False))
        if isinstance(expr, (ast.Between, ast.InSelect, ast.Like, ast.Logical)):
            raise self.error("predicate not allowed in a value expression", expr.pos)
        raise self.error(f"unsupported expression {type(expr).__name__}", getattr(expr, "pos", -1))

    # -- WHERE ---------------------------------------------------------
    def _classify_where(self, where, scopes):
        """Distribute conjuncts into per-scope filters; return join pairs."""
        join_pairs: list[tuple[ir.ColRef, ir.ColRef]] = []
        if where is None:
            return join_pairs
        terms = where.terms if isinstance(where, ast.Logical) and where.op == "AND" else (where,)
        for term in terms:
            self._classify_term(term, scopes, join_pairs)
        return join_pairs

    def _classify_term(self, term, scopes, join_pairs) -> None:
        if isinstance(term, ast.Binary) and term.op in _COMPARISON_OPS:
            if term.op in ("=", "<>") and (
                isinstance(term.left, ast.String) != isinstance(term.right, ast.String)
            ):
                self._push_string_equality(term, scopes)
                return
            left = self._convert(term.left, scopes, agg_ok=False)
            right = self._convert(term.right, scopes, agg_ok=False)
            if (
                term.op == "="
                and isinstance(left, ir.ColumnExpr)
                and isinstance(right, ir.ColumnExpr)
                and left.ref.table != right.ref.table
            ):
                join_pairs.append((left.ref, right.ref))
                return
            op = term.op
            if _is_constant(left) and not _is_constant(right):
                left, right, op = right, left, _MIRROR[op]
            self._push_filter(ir.Compare(left=left, op=op, right=right), term.pos, scopes)
            return
        if isinstance(term, ast.Between):
            arg = self._convert(term.arg, scopes, agg_ok=False)
            low = self._convert(term.low, scopes, agg_ok=False)
            high = self._convert(term.high, scopes, agg_ok=False)
            self._push_filter(ir.Compare(left=arg, op=">=", right=low), term.pos, scopes)
            self._push_filter(ir.Compare(left=arg, op="<=", right=high), term.pos, scopes)
            return
        if isinstance(term, ast.Like):
            self._push_like(term, scopes)
            return
        if isinstance(term, ast.InSelect):
            arg = self._convert(term.arg, scopes, agg_ok=False)
            if not isinstance(arg, ir.ColumnExpr):
                raise self.error("IN (subquery) needs a plain column on the left", term.pos)
            subplan = self.bind(term.select)
            names = ir.output_names(subplan)
            if len(names) != 1:
                raise self.error(
                    f"IN subquery must produce one column, got {len(names)}", term.pos
                )
            scope = self._scope_of(arg.ref.table, scopes)
            scope.filters.append(ir.InSubquery(expr=arg, subplan=subplan))
            return
        raise self.error(
            "WHERE supports AND-ed comparisons, BETWEEN, LIKE and IN (subquery)",
            getattr(term, "pos", -1),
        )

    def _push_string_equality(self, term: ast.Binary, scopes) -> None:
        """``col = 'NAME'`` on a dictionary-encoded column -> the exact
        integer-code comparison (see :data:`STRING_EQUALITY_CODES`)."""
        if isinstance(term.right, ast.String):
            column_side, literal = term.left, term.right
        else:
            column_side, literal = term.right, term.left
        if not isinstance(column_side, ast.Column):
            raise self.error(
                "string comparison needs a plain column on one side", term.pos
            )
        resolved = self._resolve(column_side, scopes)
        scope = self._scope_of(resolved.ref.table, scopes)
        codes = STRING_EQUALITY_CODES.get((scope.base_table, resolved.ref.column))
        if codes is None:
            supported = sorted(col for _, col in STRING_EQUALITY_CODES)
            raise self.error(
                f"column {resolved.ref.column!r} has no string dictionary; "
                f"string equality is supported on: {supported}",
                term.pos,
            )
        code = codes.get(literal.value)
        if code is None:
            raise self.error(
                f"unknown value {literal.value!r} for "
                f"{resolved.ref.column!r}; known values: {sorted(codes)}",
                literal.pos,
            )
        scope.filters.append(
            ir.Compare(left=resolved, op=term.op, right=ir.ConstExpr(value=code))
        )

    def _push_like(self, term: ast.Like, scopes) -> None:
        if not isinstance(term.arg, ast.Column):
            raise self.error("LIKE needs a plain column on the left", term.pos)
        resolved = self._resolve(term.arg, scopes, virtual_ok=True)
        scope = self._scope_of(resolved.ref.table, scopes)
        key = (scope.base_table, resolved.ref.column, term.pattern)
        rewrite = LIKE_REWRITES.get(key)
        if rewrite is None:
            supported = sorted(
                f"{col} LIKE '{pat}'" for _, col, pat in LIKE_REWRITES
            )
            raise self.error(
                f"unsupported LIKE predicate on {resolved.ref.column!r}; the "
                f"dictionary-encoded schema supports: {supported}",
                term.pos,
            )
        stored, code = rewrite
        scope.filters.append(
            ir.Compare(
                left=ir.ColumnExpr(ref=ir.ColRef(table=scope.name, column=stored)),
                op="=",
                right=ir.ConstExpr(value=code),
            )
        )

    def _push_filter(self, predicate: ir.Compare, pos: int, scopes) -> None:
        tables = _tables_in(predicate.left) | _tables_in(predicate.right)
        if len(tables) != 1:
            raise self.error(
                "non-equi predicates across tables are not supported", pos
            )
        self._scope_of(tables.pop(), scopes).filters.append(predicate)

    # -- joins ---------------------------------------------------------
    def _join_tree(self, scopes, join_pairs, select: ast.Select) -> ir.PlanNode:
        remaining = list(scopes)
        first = remaining.pop(0)
        tree = first.filtered_node()
        joined = {first.name}
        pairs_left = list(join_pairs)
        while remaining:
            chosen = None
            for scope in remaining:
                oriented = _pairs_for(scope.name, joined, pairs_left)
                if oriented:
                    chosen = (scope, oriented)
                    break
            if chosen is None:
                names = sorted(scope.name for scope in remaining)
                raise self.error(
                    f"tables {names} have no equi-join predicate connecting "
                    f"them to the rest of the FROM clause (cross joins are "
                    f"not supported)",
                    select.pos,
                )
            scope, oriented = chosen
            tree = ir.Join(left=tree, right=scope.filtered_node(), pairs=tuple(oriented))
            joined.add(scope.name)
            remaining.remove(scope)
            pairs_left = [
                pair for pair in pairs_left
                if not ({pair[0].table, pair[1].table} <= joined)
            ]
        if pairs_left:
            raise self.error("unusable join predicate", select.pos)
        return tree

    # -- outputs / grouping -------------------------------------------
    def _bind_outputs(self, select: ast.Select, scopes):
        outputs = []
        has_agg = False
        for index, item in enumerate(select.items, start=1):
            expr = self._convert(item.expr, scopes, agg_ok=True)
            if _has_agg(expr):
                has_agg = True
            if item.alias:
                name = item.alias
            elif isinstance(item.expr, ast.Column):
                name = item.expr.name
            else:
                name = f"col{index}"
            outputs.append(ir.NamedExpr(name=name, expr=expr))
        return tuple(outputs), has_agg

    def _bind_having(self, having, scopes, group_refs):
        if having is None:
            return None
        if not (isinstance(having, ast.Binary) and having.op in _COMPARISON_OPS):
            raise self.error("HAVING must be a single comparison", getattr(having, "pos", -1))
        left = self._convert(having.left, scopes, agg_ok=True)
        right = self._convert(having.right, scopes, agg_ok=True)
        predicate = ir.Compare(left=left, op=having.op, right=right)
        for side in (left, right):
            for ref in _bare_columns(side):
                if ref not in group_refs:
                    raise self.error(
                        f"HAVING references non-grouped column {ref}", having.pos
                    )
        return predicate

    def _validate_grouped(self, outputs, group_refs, select: ast.Select) -> None:
        group_set = set(group_refs)
        for item, output in zip(select.items, outputs):
            for ref in _bare_columns(output.expr):
                if ref not in group_set:
                    raise self.error(
                        f"column {ref} must appear in GROUP BY or inside an "
                        f"aggregate",
                        item.pos,
                    )

    def _order_key(self, item: ast.OrderItem, outputs, scopes) -> str:
        if not isinstance(item.expr, ast.Column):
            raise self.error("ORDER BY supports plain columns/aliases only", item.pos)
        name = item.expr.name
        names = [out.name for out in outputs]
        if item.expr.table is None and name in names:
            return name
        resolved = self._resolve(item.expr, scopes)
        for out in outputs:
            if out.expr == resolved:
                return out.name
        raise self.error(
            f"ORDER BY column {name!r} is not in the select list", item.pos
        )


def _pairs_for(candidate: str, joined: set[str], pairs):
    """Join pairs connecting ``candidate`` to the joined tree, oriented
    (tree side, candidate side), in WHERE order."""
    oriented = []
    for left, right in pairs:
        if left.table in joined and right.table == candidate:
            oriented.append((left, right))
        elif right.table in joined and left.table == candidate:
            oriented.append((right, left))
    return oriented


# ----------------------------------------------------------------------
# Binding
# ----------------------------------------------------------------------


#: Plan and expression nodes with children, and their fields in order.
_FIELDS = {
    cls: tuple(f.name for f in dataclasses.fields(cls))
    for cls in (
        ir.Filter, ir.Join, ir.Aggregate, ir.Project, ir.OrderBy, ir.Limit,
        ir.SubqueryScan, ir.Compare, ir.InSubquery, ir.NamedExpr, ir.YearOf,
        ir.AggCall,
    )
}


def bind(plan, binding: tuple):
    """The plan of one statement: shape plan ``plan`` with each
    :class:`~repro.sql.plan.ParamExpr` replaced by its ``binding``
    value and constants folded as a literal-in-place plan folds them.

    An :class:`~repro.sql.plan.Arith` folds only when both sides are
    constants after binding (``DATE - INTERVAL`` folds, ``/ 0`` to NaN);
    the planner never builds one over two constants of its own, and a
    subtree that keeps a column never folds.  A
    :class:`~repro.sql.plan.NegExpr` folds to ``-v``.
    """
    kind = type(plan)
    if kind is ir.ParamExpr:
        return ir.ConstExpr(value=binding[plan.slot])
    if kind is ir.NegExpr:
        return ir.ConstExpr(value=-bind(plan.arg, binding).value)
    if kind is ir.Arith:
        left, right = bind(plan.left, binding), bind(plan.right, binding)
        if type(left) is not ir.ConstExpr or type(right) is not ir.ConstExpr:
            return ir.Arith(op=plan.op, left=left, right=right)
        folded = {
            "+": left.value + right.value,
            "-": left.value - right.value,
            "*": left.value * right.value,
            "/": left.value / right.value if right.value else float("nan"),
        }[plan.op]
        return ir.ConstExpr(value=float(folded))
    if kind is tuple:
        return tuple([bind(item, binding) for item in plan])
    fields = _FIELDS.get(kind)
    if fields is None:  # a leaf: Scan, ColumnExpr, ConstExpr, names, flags
        return plan
    return kind(*[bind(getattr(plan, name), binding) for name in fields])


# ----------------------------------------------------------------------
# Expression walks
# ----------------------------------------------------------------------


def _is_constant(expr: ir.ScalarExpr) -> bool:
    """Whether ``expr`` binds to a single constant."""
    if isinstance(expr, (ir.ConstExpr, ir.ParamExpr, ir.NegExpr)):
        return True
    return (
        isinstance(expr, ir.Arith)
        and _is_constant(expr.left)
        and _is_constant(expr.right)
    )


def _tables_in(expr: ir.ScalarExpr) -> set[str]:
    if isinstance(expr, ir.ColumnExpr):
        return {expr.ref.table}
    if isinstance(expr, ir.Arith):
        return _tables_in(expr.left) | _tables_in(expr.right)
    if isinstance(expr, ir.YearOf):
        return _tables_in(expr.arg)
    if isinstance(expr, ir.AggCall):
        return _tables_in(expr.arg) if expr.arg is not None else set()
    return set()


def _has_agg(expr: ir.ScalarExpr) -> bool:
    if isinstance(expr, ir.AggCall):
        return True
    if isinstance(expr, ir.Arith):
        return _has_agg(expr.left) or _has_agg(expr.right)
    if isinstance(expr, ir.YearOf):
        return _has_agg(expr.arg)
    return False


def _bare_columns(expr: ir.ScalarExpr) -> set[ir.ColRef]:
    """Column refs used *outside* aggregate arguments."""
    if isinstance(expr, ir.ColumnExpr):
        return {expr.ref}
    if isinstance(expr, ir.Arith):
        return _bare_columns(expr.left) | _bare_columns(expr.right)
    if isinstance(expr, ir.YearOf):
        return _bare_columns(expr.arg)
    return set()
