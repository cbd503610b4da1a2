"""The shared hash-table cache (:func:`repro.engines.morsel.shared_structure`)
holds a service's whole working set: a loop that interleaves the
hand-wired scan statements with the compiled joins rebuilds nothing
once warm."""

from __future__ import annotations

import pytest

from repro.engines import engine_by_name
from repro.engines.morsel import _STRUCTURES
from repro.sql import compile_sql
from repro.tpch import GROUPBY_SQL, JOIN_SQL, TPCH_SQL, projection_sql, selection_sql
from repro.tpch.sql import EXTENDED_TPCH_SQL

ENGINES = ("Typer", "Tectorwise")


def _scan_statements(db) -> list[str]:
    return [
        TPCH_SQL["Q1"], TPCH_SQL["Q6"], TPCH_SQL["Q9"], TPCH_SQL["Q18"],
        GROUPBY_SQL, projection_sql(1), projection_sql(4),
        selection_sql(0.10, db), selection_sql(0.50, db), JOIN_SQL["large"],
    ]


def _compiled_statements() -> list[str]:
    return [
        *EXTENDED_TPCH_SQL.values(),
        TPCH_SQL["Q1"].replace("INTERVAL '90' DAY", "INTERVAL '60' DAY"),
        TPCH_SQL["Q6"].replace("l_quantity < 24", "l_quantity < 25"),
    ]


@pytest.fixture
def mixed(db_factory, monkeypatch):
    monkeypatch.setenv("REPRO_EXEC_CACHE", "0")
    db = db_factory(0.01, seed=7)
    scan, compiled = _scan_statements(db), _compiled_statements()
    interleaved = [sql for pair in zip(scan, compiled) for sql in pair]
    interleaved += scan[len(compiled):] + compiled[len(scan):]
    return db, [compile_sql(sql) for sql in interleaved]


def test_the_mixed_workload_rebuilds_no_structure_once_warm(mixed):
    db, bounds = mixed
    engines = [engine_by_name(name) for name in ENGINES]

    def one_round():
        for bound in bounds:
            for engine in engines:
                bound.execute(engine, db)

    one_round()
    before = _STRUCTURES.stats()
    one_round()
    one_round()
    after = _STRUCTURES.stats()
    assert after["misses"] == before["misses"]
    assert after["evictions"] == before["evictions"]
    assert after["hits"] > before["hits"]
