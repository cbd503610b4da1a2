"""The pinned compiled matrix: ``run_compiled`` cells on Typer and Tectorwise.

``pinned_compiled_profiles.json`` holds every cell's statement (SQL text
and the database it runs on) and, per engine and cell, the fields
``tests/engines/generate_pinned_profiles.py`` pins -- label,
``repr(value)``, tuples, the sorted ``details`` keys, SHA-256 digests of
the total and per-operator WorkProfiles -- plus a SHA-256 of the details
themselves, ``exact_totals`` included.  ``test_pinned_compiled.py``
compares the single-shot run and a ragged tiling of every cell against
it.

Cells: the eight statements of olapbench's ``compiled_joins`` workload,
the flattened Q18 winners query, six seeded q3/q12 texts of olapbench's
``frontend_adhoc`` generator (SF 0.01, seed 7), and the grouping cases
defined here on their own one-table databases (``test_grouping.py``
checks the same cases against a row-at-a-time reference).  The module
imports nothing the reference commit lacks, so it runs against it.

It was written from ``f1a7707``, the last commit whose grouped compiled
state was a dict per group; ``python tests/pinned.py compiled_profiles``
writes it.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import numpy as np
from matrix.cells import Q18_FLAT
from pinned import json_sha256

from repro.storage import ColumnTable, Database

# The engine matrix's field digests (the test tree is not a package).
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "engines"))
from generate_pinned_profiles import summarize  # noqa: E402

SCALE_FACTOR, SEED = 0.01, 7
ENGINES = ("Typer", "Tectorwise")

#: Rows of each ``test_grouping.py`` case.
N_ROWS = 1000


def _lineitem(**columns) -> Database:
    db = Database("grouping")
    db.add_table(ColumnTable("lineitem", columns))
    return db


def _cases() -> dict[str, tuple[Database, tuple[str, ...]]]:
    rng = np.random.default_rng(17)
    price = np.round(rng.uniform(-5e4, 1e5, size=N_ROWS), 2)
    wide = 1 << 30
    return {
        # Offsets, not raw values, index the dense table.
        "negative-int-keys": (
            _lineitem(
                l_orderkey=rng.integers(-7, 3, size=N_ROWS),
                l_linenumber=rng.integers(-2, 2, size=N_ROWS),
                l_extendedprice=price,
            ),
            ("l_orderkey", "l_linenumber"),
        ),
        # A 3.0 key cell comes out as int 3, 0.07 stays a float.
        "float-keys": (
            _lineitem(
                l_quantity=rng.integers(1, 6, size=N_ROWS).astype(np.float64),
                l_discount=rng.integers(0, 4, size=N_ROWS) / 100.0,
                l_extendedprice=price,
            ),
            ("l_quantity", "l_discount"),
        ),
        # Radix product ~2**93: the fold compacts early and the final
        # domain is far above the row count (sparse branch); nearly
        # every row is its own group.
        "three-wide-keys": (
            _lineitem(
                l_orderkey=rng.integers(-wide, wide, size=N_ROWS),
                l_partkey=rng.integers(0, wide, size=N_ROWS),
                l_suppkey=rng.integers(0, wide, size=N_ROWS),
                l_extendedprice=price,
            ),
            ("l_orderkey", "l_partkey", "l_suppkey"),
        ),
        # One key wider than an offset radix allows, one row per group.
        "single-row-groups": (
            _lineitem(
                l_orderkey=rng.permutation(N_ROWS).astype(np.int64) * (1 << 40)
                - (1 << 48),
                l_extendedprice=price,
            ),
            ("l_orderkey",),
        ),
    }


CASES = _cases()


def grouping_sql(keys) -> str:
    """A sum and a count grouped by ``keys``."""
    return (
        f"SELECT {', '.join(keys)}, SUM(l_extendedprice) AS s, COUNT(*) AS n "
        f"FROM lineitem GROUP BY {', '.join(keys)};"
    )


def details_digest(details: dict) -> str:
    """SHA-256 of the canonical JSON of a result's details (operator
    profiles are digested separately; ``cached`` is not behaviour)."""
    return json_sha256({k: v for k, v in details.items() if k not in ("cached", "operators")})


def _statements(db) -> dict:
    """``cell -> {"sql", "db"}``: the olapbench texts are drawn once here
    and stored, so the test never imports the harness."""
    here = Path(__file__).resolve()
    sys.path.insert(0, str(here.parents[2] / "benchmarks" / "olapbench"))
    from workloads import AdhocOps, compiled_statements

    statements = {
        f"compiled_joins/{name}": {"sql": sql, "db": "tpch"}
        for name, sql in compiled_statements(db).items()
    }
    statements["Q18-flat"] = {"sql": Q18_FLAT, "db": "tpch"}
    rng = random.Random(SEED)
    for index in range(3):
        for shape in ("q3", "q12"):
            sql = getattr(AdhocOps, f"_{shape}")(rng)
            statements[f"adhoc/{shape}-{index}"] = {"sql": sql, "db": "tpch"}
    for case, (_, keys) in CASES.items():
        statements[f"grouping/{case}"] = {
            "sql": grouping_sql(keys), "db": f"grouping:{case}",
        }
    return statements


def database(kind: str, tpch):
    """The database a statement's ``db`` field names."""
    return tpch if kind == "tpch" else CASES[kind.split(":", 1)[1]][0]


def pinned_fields(result) -> dict:
    return {**summarize(result), "details_digest": details_digest(result.details)}


def collect() -> dict:
    from repro.engines import engine_by_name
    from repro.sql.api import plan_sql
    from repro.tpch import generate_database

    tpch = generate_database(scale_factor=SCALE_FACTOR, seed=SEED)
    statements = _statements(tpch)
    return {"statements": statements, **{
        name: {
            cell: pinned_fields(engine_by_name(name).run_compiled(
                database(statement["db"], tpch), plan_sql(statement["sql"])
            ))
            for cell, statement in statements.items()
        }
        for name in ENGINES
    }}
