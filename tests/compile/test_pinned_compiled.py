"""Every pinned compiled cell against the file recorded before the
grouped state became columnar: label, value, tuples, details (exact
totals included) and every WorkProfile, single-shot and ragged."""

from __future__ import annotations

import json

import pytest
from generate_pinned_compiled_profiles import (
    ENGINES,
    PINNED_COMPILED,
    SCALE_FACTOR,
    SEED,
    database,
    pinned_fields,
)
from matrix.cells import tiled

from repro.engines import engine_by_name
from repro.sql.api import plan_sql

PINNED = json.loads(PINNED_COMPILED.read_text())


@pytest.mark.parametrize("cell", sorted(PINNED["statements"]))
@pytest.mark.parametrize("engine_name", ENGINES)
def test_compiled_cell_equals_pinned(db_factory, engine_name, cell):
    statement = PINNED["statements"][cell]
    db = database(statement["db"], db_factory(SCALE_FACTOR, seed=SEED))
    engine = engine_by_name(engine_name)
    plan = plan_sql(statement["sql"])
    single = engine.run_compiled(db, plan)
    ragged = tiled(engine, db, "run_compiled", {"plan": plan}, "ragged")
    pinned = PINNED[engine_name][cell]
    for tiling, result in (("single-shot", single), ("ragged", ragged)):
        got = pinned_fields(result)
        for field in pinned:
            assert got[field] == pinned[field], f"{tiling} {field}"
