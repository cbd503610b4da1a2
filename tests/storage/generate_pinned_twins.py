"""The pinned twin payloads: every derived database the repo builds.

A *twin* is a copy of a database with one table's rows reordered or
split: the partitioned databases of the rollup router, the clustered
twin of the pruning figure, hash and range shards, and the
``sorted_db`` / ``raw_db`` test fixtures.  ``pinned_twins.json`` holds,
per twin, every column's codec, codec meta and a SHA-256 of each
payload array, each table's partitioning (row bounds, mins and maxs)
and, for shards, the derived ``cache_key``.  ``test_pinned_twins.py``
rebuilds every twin and compares.

It was written from ``76991cc``, the commit before the twin builders
shared one row-take primitive, whose builders (and ``sorted_db`` /
``raw_db`` fixtures) decoded every column and ran the load-time
encoding policy again; ``python tests/pinned.py twins`` writes it.
"""

from __future__ import annotations

import numpy as np
from databases import ALIGNED_BREAKS, SMALL_SF, TINY_SF, raw_twin, sorted_twin
from pinned import array_sha256

from repro.analysis.figures_pruning import _clustered_twin
from repro.rollup import PartitionSpec, partitioned_database
from repro.shard import build_shards
from repro.storage import EncodedColumn
from repro.tpch import DATE_1998_09_02, generate_database


def _quantile_spec(db, n_quantiles: int = 25) -> PartitionSpec:
    """Shipdate breaks at the inner quantiles plus the Q1 cutoff, shaped
    like olapbench's clustered twin."""
    shipdate = np.asarray(db.table("lineitem")["l_shipdate"])
    quantiles = np.quantile(shipdate, np.linspace(0, 1, n_quantiles + 1)[1:-1])
    breaks = {float(np.floor(q)) + 0.5 for q in quantiles} | {DATE_1998_09_02 + 0.5}
    return PartitionSpec("l_shipdate", tuple(sorted(breaks)))


#: Twin id -> builder over a fixture lookup; a builder returns one
#: database or a list of shard databases.
TWINS = {
    "partitioned-tiny-aligned": lambda fx: partitioned_database(
        fx("tiny_db"), PartitionSpec("l_shipdate", ALIGNED_BREAKS)
    ),
    "partitioned-small-rollup": lambda fx: partitioned_database(
        fx("small_db"), PartitionSpec("l_shipdate", (2200.0, DATE_1998_09_02 + 0.5))
    ),
    "partitioned-small-quantile25": lambda fx: partitioned_database(
        fx("small_db"), _quantile_spec(fx("small_db"))
    ),
    "clustered-small": lambda fx: _clustered_twin(fx("small_db")),
    **{
        f"shards-tiny-{mode}-{n}": (
            lambda fx, n=n, mode=mode: build_shards(fx("tiny_db"), n, mode)
        )
        for mode in ("hash", "range")
        for n in (2, 3)
    },
    "sorted_db": lambda fx: fx("sorted_db"),
    "raw_db": lambda fx: fx("raw_db"),
}


def _column_record(column) -> dict:
    if isinstance(column, EncodedColumn):
        meta, arrays = column.payload()
    else:
        meta, arrays = {"codec": "raw", "dtype": column.dtype.str}, {"values": column.values}
    return {**meta, "sha256": {name: array_sha256(array) for name, array in arrays.items()}}


def _database_record(db) -> dict:
    tables = {}
    for name in db.table_names:
        table = db.table(name)
        partitioning = table.partitioning
        tables[name] = {
            "columns": {c: _column_record(table.column(c)) for c in table.column_names},
            "partitioning": None if partitioning is None else {
                "column": partitioning.column,
                "breaks": list(partitioning.breaks),
                "bounds": partitioning.bounds.tolist(),
                "mins": partitioning.mins.tolist(),
                "maxs": partitioning.maxs.tolist(),
            },
        }
    return {"tables": tables}


def twin_record(built) -> list[dict]:
    """JSON-safe record of one twin (a list: one entry per shard)."""
    if isinstance(built, list):
        return [{"cache_key": db.cache_key, **_database_record(db)} for db in built]
    return [_database_record(built)]


def collect() -> dict:
    built: dict = {}
    makers = {
        "tiny_db": lambda: generate_database(scale_factor=TINY_SF, seed=7),
        "small_db": lambda: generate_database(scale_factor=SMALL_SF, seed=11),
        "sorted_db": lambda: sorted_twin(fx("small_db")),
        "raw_db": lambda: raw_twin(fx("tiny_db")),
    }

    def fx(name):
        if name not in built:
            built[name] = makers[name]()
        return built[name]

    return {twin: twin_record(build(fx)) for twin, build in TWINS.items()}
