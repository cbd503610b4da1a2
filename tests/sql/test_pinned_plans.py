"""The front end against ``pinned_plans.json`` (see
``generate_pinned_plans.py``): every statement plans to the pinned plan
and lowers to the pinned call, and every bad statement raises the
pinned ``SqlError`` text, whether it meets a cold front end, a
:class:`~repro.sql.PlanCache` that already holds a plan of its shape,
or is repeated."""

from __future__ import annotations

import contextlib
import random

import pytest

from repro.compile.program import compiled_program
from repro.sql import PlanCache, SqlError
from repro.sql.api import compile_sql
from repro.sql.lower import tables_read

from generate_pinned_plans import bound_fields, front_end, plan_digest
from pinned import load

PINNED = load("plans")
PLANS, ERRORS = PINNED["plans"], PINNED["errors"]


@pytest.mark.parametrize("name", sorted(PLANS))
def test_statement_plans_and_lowers_as_pinned(name):
    entry = PLANS[name]
    assert front_end(entry["sql"]) == entry


def _through(cache: PlanCache, sql: str) -> dict:
    try:
        bound = cache.compile(sql)
    except SqlError as exc:
        return {"error": str(exc)}
    return {"plan_sha256": plan_digest(bound.plan), "bound": bound_fields(bound)}


def _pinned(entry: dict) -> dict:
    if "bound" in entry:
        return {"plan_sha256": entry["plan_sha256"], "bound": entry["bound"]}
    return {"error": entry["bound_error"]}


def test_one_plan_cache_serves_the_whole_corpus_as_pinned():
    """Every statement through one small cache, shuffled so shapes are
    rebound, evicted and repeated: the same plans and calls as cold."""
    cache = PlanCache(8)
    names = sorted(PLANS) * 2
    random.Random(3).shuffle(names)
    for name in names:
        assert _through(cache, PLANS[name]["sql"]) == _pinned(PLANS[name]), name


@pytest.mark.parametrize("name", sorted(ERRORS))
def test_bad_statement_raises_the_pinned_error(name):
    entry = ERRORS[name]
    with pytest.raises(SqlError) as cold:
        compile_sql(entry["sql"])
    assert str(cold.value) == entry["error"]
    cache = PlanCache(4)
    if entry["warm"] is not None:
        with contextlib.suppress(SqlError):
            cache.compile(entry["warm"])
    for _ in range(2):  # a rebinding (or cold), then a repeat
        with pytest.raises(SqlError) as served:
            cache.compile(entry["sql"])
        assert str(served.value) == entry["error"]
    if entry["warm"] is not None:  # a failed binding leaves the shape usable
        assert _through(cache, entry["warm"]) == _pinned(PLANS[f"warm/{name}"])


def test_compiled_statements_that_read_lineitem_drive_it():
    """The shard coordinator's single route rests on this: a compiled
    statement that reads the sharded fact table also drives it, so it
    scatters."""
    driving = []
    for entry in PLANS.values():
        if "'run_compiled'" in entry.get("bound", ""):
            bound = compile_sql(entry["sql"])
            if "lineitem" in tables_read(bound.plan):
                driving.append(compiled_program(bound.plan).driving)
    assert driving and set(driving) == {"lineitem"}
