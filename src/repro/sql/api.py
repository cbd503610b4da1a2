"""One-call entry points: SQL text -> AST -> plan -> bound engine run.

This is the surface the examples, the query service and the tests use::

    select = parse_sql("SELECT SUM(l_quantity) FROM lineitem")
    plan   = plan_sql("SELECT ...")          # validated logical plan
    bound  = compile_sql("SELECT ...")       # plan lowered to an engine call
    result = execute_sql("SELECT ...", engine="Typer", db=db)

Every path tokenizes a statement once, splits it into shape and binding
(:func:`~repro.sql.tokens.normalize_sql`), plans the shape and binds
the literals last (:func:`~repro.sql.planner.bind`).
"""

from __future__ import annotations

import dataclasses

from repro import memo
from repro.obs import trace
from repro.sql import ast
from repro.sql import plan as ir
from repro.sql.lower import BoundQuery, lower
from repro.sql.parser import parse
from repro.sql.planner import Planner, bind
from repro.sql.tokens import Statement, normalize_sql


def parse_sql(sql: str | Statement) -> ast.Select:
    """Parse one SELECT statement of the documented dialect."""
    with trace.span("parse"):
        return parse(sql)


def plan_statement(statement: Statement) -> ir.PlanNode:
    """Parse and plan ``statement``'s shape (literal leaves are
    :class:`~repro.sql.plan.ParamExpr` slots)."""
    select = parse_sql(statement)
    with trace.span("plan"):
        return Planner().plan_shape(select, statement.sql)


def plan_sql(sql: str) -> ir.PlanNode:
    """Parse and bind ``sql`` into a schema-validated logical plan."""
    statement = normalize_sql(sql)
    return bind(plan_statement(statement), statement.binding)


def _lowered(shape_plan: ir.PlanNode, statement: Statement) -> BoundQuery:
    """``statement``'s binding substituted into its shape plan, lowered."""
    if statement.error is not None:
        raise statement.error
    plan = bind(shape_plan, statement.binding)
    with trace.span("lower"):
        bound = lower(plan, statement.sql)
    return dataclasses.replace(bound, shape=statement.shape)


def compile_sql(sql: str) -> BoundQuery:
    """Parse, plan and lower ``sql`` onto an engine entry point."""
    statement = normalize_sql(sql)
    return _lowered(plan_statement(statement), statement)


class PlanCache(memo.BoundedCache):
    """LRU of shape plans keyed on the :func:`normalize_sql` shape text,
    so a statement is parsed and planned once per shape: requests that
    differ in formatting or in lifted literals share one entry.

    A hit is a statement whose shape is cached.  An exact repeat returns
    its lowered :class:`BoundQuery` from a second LRU of the same
    capacity, keyed by shape and binding; a fresh binding is bound and
    lowered and counts as a hit too.  Planning and lowering run outside
    the lock; threads that miss one shape at once each plan it and
    converge on the entry stored first.
    """

    def __init__(self, capacity: int):
        super().__init__("plan", capacity)
        self._bound = memo.BoundedCache("plan-bound", capacity)

    def compile(self, sql: str) -> BoundQuery:
        """:func:`compile_sql` through the cache, inside a
        ``plan_cache`` span annotated with the outcome."""
        with trace.span("plan_cache"):
            statement = normalize_sql(sql)
            shape_plan = self.get(statement.shape)
            if shape_plan is None:
                trace.annotate(outcome="miss")
                shape_plan = self.put(statement.shape, plan_statement(statement))
            else:
                trace.annotate(outcome="hit")
            key = (statement.shape, statement.binding)
            bound = self._bound.get(key)
            if bound is None:
                bound = self._bound.put(key, _lowered(shape_plan, statement))
            return bound


def execute_sql(sql: str, engine, db, **options):
    """Compile ``sql`` and run it on ``engine`` against ``db``.

    ``engine`` is an :class:`~repro.engines.Engine` instance or a
    display name ("DBMS R", "DBMS C", "Typer", "Tectorwise");
    ``options`` (e.g. ``simd=True``, ``predicated=True``) pass through
    to the bound ``run_*`` method.  Returns the engine's
    :class:`~repro.engines.QueryResult`.
    """
    if isinstance(engine, str):
        from repro.engines import engine_by_name

        engine = engine_by_name(engine)
    return compile_sql(sql).execute(engine, db, **options)
