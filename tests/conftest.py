"""Shared fixtures: generated TPC-H databases and profilers.

Scale factors are chosen for test speed; the integration tests that pin
the paper's *quantitative* bands use ``paper_db`` whose working sets
exceed the modelled L3 the way the paper's SF 5 database does.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import BROADWELL, SKYLAKE, MicroArchProfiler
from repro.tpch import generate_database
from repro.tpch.schema import DATE_1998_09_02

TINY_SF = 0.002
SMALL_SF = 0.02
PAPER_SF = 0.2


def _repro_env() -> dict:
    return {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}


@pytest.fixture(autouse=True)
def repro_env_unchanged():
    """The environment is the one settings store (:mod:`repro.settings`),
    so a flip that outlives its test silently reconfigures every later
    one.  ``monkeypatch`` users are unaffected: it restores first."""
    before = _repro_env()
    yield
    after = _repro_env()
    if after != before:
        for name in after.keys() - before.keys():
            del os.environ[name]
        os.environ.update(before)
        pytest.fail(f"test left REPRO_* settings changed: {before} -> {after}")


@pytest.fixture(scope="session")
def db_factory():
    """Session-scoped database pool keyed on the generation arguments.

    Modules that need a non-standard database (odd seed, skew, table
    subset) request it here, so every test asking for the same identity
    shares one set of arrays for the whole session instead of
    regenerating per module."""
    pool: dict = {}

    def get(scale_factor, seed=7, tables=None, skew=None):
        key = (scale_factor, seed, tables, skew)
        if key not in pool:
            kwargs = {"scale_factor": scale_factor, "seed": seed}
            if tables is not None:
                kwargs["tables"] = tables
            if skew is not None:
                kwargs["skew"] = skew
            pool[key] = generate_database(**kwargs)
        return pool[key]

    return get


@pytest.fixture(scope="session")
def tiny_db(db_factory):
    """A few thousand lineitem rows; for fast unit-level checks."""
    return db_factory(TINY_SF, seed=7)


@pytest.fixture(scope="session")
def small_db(db_factory):
    """~120k lineitem rows; for engine-correctness cross-checks."""
    return db_factory(SMALL_SF, seed=11)


@pytest.fixture(scope="session")
def paper_db(db_factory):
    """~1.2M lineitem rows: scanned columns and the large join's hash
    table exceed the modelled 35 MB L3, as in the paper's setup."""
    return db_factory(PAPER_SF, seed=42)


@pytest.fixture(scope="session")
def big_db(db_factory):
    """SF 1.0 (~6M lineitem rows): the large join's hash table (~68 MB)
    and Q18's aggregation table exceed the 35 MB L3, putting the random
    accesses in the long-latency regime the paper studies at SF 5."""
    return db_factory(
        1.0,
        seed=42,
        tables=("lineitem", "orders", "supplier", "nation", "partsupp"),
    )


def lineitem_twin(db, suffix: str, mutate):
    """A copy of ``db`` whose lineitem columns went through ``mutate``
    (dict of arrays -> dict of arrays) before encoding."""
    from repro.storage import ColumnTable, Database
    from repro.storage.encoding import encode_columns

    twin = Database(name=f"{db.name}-{suffix}", scale_factor=db.scale_factor)
    for table_name in db.table_names:
        table = db.table(table_name)
        columns = {c: np.asarray(table[c]) for c in table.column_names}
        if table_name == "lineitem":
            columns = mutate(columns)
        twin.add_table(ColumnTable(table_name, encode_columns(columns)))
    return twin


@pytest.fixture(scope="session")
def sorted_db(small_db):
    """lineitem clustered on l_shipdate: selective date predicates
    isolate a narrow kept range, so most chunks prune."""

    def clustered(columns):
        order = np.argsort(columns["l_shipdate"], kind="stable")
        return {c: values[order] for c, values in columns.items()}

    return lineitem_twin(small_db, "sorted", clustered)


@pytest.fixture(scope="session")
def shifted_db(tiny_db):
    """Every l_shipdate pushed past Q6's window: all chunks prune."""

    def shifted(columns):
        out = dict(columns)
        out["l_shipdate"] = columns["l_shipdate"] + 10000.0
        return out

    return lineitem_twin(tiny_db, "shifted", shifted)


#: Breaks aligned with the Q1 cutoff: ``searchsorted(side="right")``
#: puts a value equal to a break into the upper partition, so the upper
#: break sits just past the cutoff and every partition decides the Q1
#: predicate wholly.
ALIGNED_BREAKS = (2100.0, 2300.0, DATE_1998_09_02 + 0.5)


@pytest.fixture(scope="session")
def rollup_db(tiny_db):
    """Shipdate-partitioned twin of ``tiny_db`` with the default
    lineitem rollup attached."""
    from repro.rollup import PartitionSpec, build_and_attach, partitioned_database

    db = partitioned_database(tiny_db, PartitionSpec("l_shipdate", ALIGNED_BREAKS))
    build_and_attach(db)
    return db


@pytest.fixture(scope="session")
def raw_db(tiny_db):
    """``tiny_db`` with every column decoded to a plain array.

    A distinct Database identity, so the execution cache can never
    alias the two (its keys include the database identity)."""
    from repro.storage import ColumnTable, Database

    twin = Database(name=tiny_db.name, scale_factor=tiny_db.scale_factor)
    for name in tiny_db.table_names:
        table = tiny_db.table(name)
        twin.add_table(ColumnTable(
            name, {c: np.asarray(table[c]) for c in table.column_names}
        ))
    return twin


@pytest.fixture(scope="session")
def matrix(request):
    """The bit-identity matrix's runner (``tests/matrix``): its pools and
    clusters are spawned once per session, on first use."""
    from matrix.cells import Matrix

    matrix = Matrix(request.getfixturevalue)
    yield matrix
    matrix.close()


@pytest.fixture(scope="session")
def profiler():
    return MicroArchProfiler(spec=BROADWELL)


@pytest.fixture(scope="session")
def skylake_profiler():
    return MicroArchProfiler(spec=SKYLAKE)
