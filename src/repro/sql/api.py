"""One-call entry points: SQL text -> AST -> plan -> bound engine run.

This is the surface the examples, the query service and the tests use::

    select = parse_sql("SELECT SUM(l_quantity) FROM lineitem")
    plan   = plan_sql("SELECT ...")          # validated logical plan
    bound  = compile_sql("SELECT ...")       # plan lowered to an engine call
    result = execute_sql("SELECT ...", engine="Typer", db=db)
"""

from __future__ import annotations

from repro import memo
from repro.obs import trace
from repro.sql import ast
from repro.sql import plan as ir
from repro.sql.lower import BoundQuery, lower
from repro.sql.parser import parse
from repro.sql.planner import Planner
from repro.sql.tokens import normalize_sql


def parse_sql(sql: str) -> ast.Select:
    """Parse one SELECT statement of the documented dialect."""
    with trace.span("parse"):
        return parse(sql)


def plan_sql(sql: str) -> ir.PlanNode:
    """Parse and bind ``sql`` into a schema-validated logical plan."""
    select = parse_sql(sql)
    with trace.span("plan"):
        return Planner().plan(select, sql)


def compile_sql(sql: str) -> BoundQuery:
    """Parse, plan and lower ``sql`` onto an engine entry point."""
    plan = plan_sql(sql)
    with trace.span("lower"):
        return lower(plan, sql)


class PlanCache(memo.BoundedCache):
    """LRU of lowered statements keyed on :func:`normalize_sql` text
    alone, so requests that differ only in formatting share one plan.

    Lowering runs outside the lock; threads that miss the same text at
    once each lower it and converge on the entry stored first.
    """

    def __init__(self, capacity: int):
        super().__init__("plan", capacity)

    def compile(self, sql: str) -> BoundQuery:
        """:func:`compile_sql` through the cache, inside a
        ``plan_cache`` span annotated with the outcome."""
        with trace.span("plan_cache"):
            key = normalize_sql(sql)
            bound = self.get(key)
            if bound is not None:
                trace.annotate(outcome="hit")
                return bound
            trace.annotate(outcome="miss")
            return self.put(key, compile_sql(sql))


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
