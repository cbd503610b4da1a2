"""High-cardinality GROUP BY through every executor.

The flattened Q18 winners query groups SF 0.05's lineitem by
``l_orderkey`` (~75k groups).  Morsel tilings meet orders that straddle
a boundary (the leaf's union), the process pool pre-merges per worker
and ships pickled leaves, and two hash shards interleave every key, so
each merge path of :class:`GroupedPartial` runs at scale.  Every route
must reproduce the single-shot answer bit for bit.
"""

from __future__ import annotations

import pytest
from matrix.cells import Q18_FLAT, assert_bit_identical, tiled

from repro.core.parallel import WorkerPool
from repro.engines import TyperEngine
from repro.shard.cluster import ShardCluster
from repro.shard.coordinator import Coordinator
from repro.sql.api import plan_sql

ENGINE = TyperEngine()
PLAN = plan_sql(Q18_FLAT)


@pytest.fixture(scope="module")
def db(db_factory):
    return db_factory(0.05, seed=7)


@pytest.fixture(scope="module")
def single(db):
    result = ENGINE.run_compiled(db, PLAN)
    assert result.details["candidates"] == db.table("lineitem").n_rows
    assert result.value["rows"], "the winners query must select groups"
    return result


def test_morsel_tilings_match_single_shot(db, single):
    for name in ("sevenths", "ragged"):
        merged = tiled(ENGINE, db, "run_compiled", {"plan": PLAN}, name)
        assert_bit_identical(merged, single, name)
        assert merged.details["exact_totals"] == single.details["exact_totals"]


def test_process_pool_matches_single_shot(db, single):
    with WorkerPool(db, n_workers=2, morsel_rows=1 << 14) as pool:
        pooled = pool.run_query(ENGINE, "run_compiled", plan=PLAN)
    assert_bit_identical(pooled, single, "pool")
    assert pooled.details["exact_totals"] == single.details["exact_totals"]


def test_two_hash_shards_match_single_shot(db, single):
    with ShardCluster(db, n_shards=2, mode="hash", spawn="thread") as cluster:
        response = Coordinator(db, cluster).execute(Q18_FLAT, engine=ENGINE.name)
    assert_bit_identical(response, single, "two hash shards")
