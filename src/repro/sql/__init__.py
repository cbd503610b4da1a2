"""SQL frontend: tokenizer, parser, logical-plan IR and lowering.

The dialect is exactly the one :mod:`repro.tpch.sql` documents; plans
validate against :mod:`repro.tpch.schema` and lower onto the engines'
existing ``run_*`` paths, so a SQL round-trip produces bit-identical
results to the hand-wired plans.
"""

from repro.sql.api import PlanCache, compile_sql, execute_sql, parse_sql, plan_sql
from repro.sql.errors import SqlError
from repro.sql.lower import BoundQuery, lower
from repro.sql.parser import parse
from repro.sql.planner import Planner
from repro.sql.tokens import Token, normalize_sql, tokenize

__all__ = [
    "BoundQuery",
    "PlanCache",
    "Planner",
    "SqlError",
    "Token",
    "compile_sql",
    "execute_sql",
    "lower",
    "normalize_sql",
    "parse",
    "parse_sql",
    "plan_sql",
    "tokenize",
]
