"""One binding's answer is never served for another.

Statements of one shape differ only in their literals, so every cache
between the text and the answer (plans, chooser decisions, compiled
programs, build sides, engine runs) must tell the bindings apart.  Two
bindings of each ``frontend_adhoc`` shape, plus two pairs that share a
shape but lower to different routes (TPC-H Q1 against its 60-day
variant, Q6 against ``l_quantity < 25``: template against compiled),
run interleaved through one driver; each answer must carry the bits of
a single-node ``compile_sql(text).execute(...)`` of its own text, and
the two bindings of a pair must answer differently.
"""

from __future__ import annotations

import random
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.execcache import EXECUTION_CACHE
from repro.engines import engine_by_name
from repro.serve import QueryService, ServiceConfig
from repro.serve.protocol import jsonable
from repro.shard.cluster import ShardCluster
from repro.shard.coordinator import Coordinator
from repro.sql import compile_sql
from repro.tpch.schema import PROJECTION_COLUMNS, SELECTION_PREDICATE_COLUMNS
from repro.tpch.sql import TPCH_SQL

ENGINE = "Typer"
SEED = 11


# Seeded copies of the olapbench ``frontend_adhoc`` generators.
def _q6(rng, grid) -> str:
    year = rng.randint(1993, 1997)
    discount = rng.randint(2, 9) / 100
    return (
        "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
        f"WHERE l_shipdate >= DATE '{year}-01-01' "
        f"AND l_shipdate < DATE '{year + 1}-01-01' "
        f"AND l_discount BETWEEN {discount - 0.01:.2f} AND {discount + 0.01:.2f} "
        f"AND l_quantity < {rng.randint(10, 40) + rng.random():.6f};"
    )


def _selection(rng, grid) -> str:
    predicates = " AND ".join(
        f"{column} <= {quantiles[rng.randint(2, 60)] + rng.random():.6f}"
        for column, quantiles in grid.items()
    )
    return (
        f"SELECT SUM({' + '.join(PROJECTION_COLUMNS)}) "
        f"FROM lineitem WHERE {predicates};"
    )


def _q12(rng, grid) -> str:
    year = rng.randint(1993, 1997)
    return (
        "SELECT l_returnflag, COUNT(*) AS line_count, "
        "SUM(l_extendedprice) AS revenue FROM orders, lineitem "
        "WHERE o_orderkey = l_orderkey AND l_commitdate < l_receiptdate "
        "AND l_shipdate < l_commitdate "
        f"AND l_receiptdate >= DATE '{year}-01-01' "
        f"AND l_receiptdate < DATE '{year + 1}-01-01' "
        f"AND l_quantity < {rng.randint(20, 49) + rng.random():.6f} "
        "GROUP BY l_returnflag ORDER BY l_returnflag;"
    )


def _q3(rng, grid) -> str:
    date = f"1995-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
    return (
        "SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, "
        "o_orderdate FROM customer, orders, lineitem "
        "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
        f"AND c_nationkey < {rng.randint(2, 20)} "
        f"AND o_orderdate < DATE '{date}' AND l_shipdate > DATE '{date}' "
        f"AND l_discount < {rng.uniform(0.03, 0.1):.6f} "
        "GROUP BY l_orderkey, o_orderdate ORDER BY revenue DESC LIMIT 10;"
    )


GENERATORS = {"q6": _q6, "selection": _selection, "q12": _q12, "q3": _q3}


def _bits(value) -> str:
    """The wire form of an answer; float ``repr`` round-trips exactly."""
    return repr(jsonable(value))


def _reference(sql: str, db) -> str:
    return _bits(compile_sql(sql).execute(engine_by_name(ENGINE), db).value)


@pytest.fixture(scope="module")
def pairs(tiny_db) -> dict:
    """``name -> (text, text)``: two bindings of one shape whose
    single-node answers differ (the first such pair the seed draws)."""
    lineitem = tiny_db.table("lineitem")
    grid = {
        column: np.quantile(np.asarray(lineitem[column]), np.linspace(0, 1, 101))
        for column in SELECTION_PREDICATE_COLUMNS
    }
    rng = random.Random(SEED)
    chosen = {}
    for name, make in GENERATORS.items():
        first = make(rng, grid)
        for _ in range(50):
            second = make(rng, grid)
            if _reference(second, tiny_db) != _reference(first, tiny_db):
                break
        chosen[name] = (first, second)
    chosen["Q1/Q1-60d"] = (
        TPCH_SQL["Q1"],
        TPCH_SQL["Q1"].replace("INTERVAL '90' DAY", "INTERVAL '60' DAY"),
    )
    chosen["Q6/Q6-qty25"] = (
        TPCH_SQL["Q6"],
        TPCH_SQL["Q6"].replace("l_quantity < 24", "l_quantity < 25"),
    )
    return chosen


@contextmanager
def _driver(kind: str, db):
    """Yields ``submit(sql) -> response`` for one driver over ``db``."""
    if kind == "shard2":
        with ShardCluster(db, n_shards=2, mode="hash", spawn="thread") as cluster:
            coordinator = Coordinator(db, cluster)
            yield lambda sql: coordinator.execute(sql, engine=ENGINE)
        return
    executor = {"executor": "process", "process_workers": 2} if kind == "process" else {}
    config = ServiceConfig(workers=2, queue_depth=16, timeout_s=120.0, **executor)
    with QueryService(config, db=db) as service:
        yield lambda sql: service.submit(sql, engine=ENGINE)


@pytest.mark.parametrize("exec_cache", ["on", "off"])
@pytest.mark.parametrize("driver", ["thread", "process", "shard2"])
def test_each_binding_gets_its_own_answer(tiny_db, pairs, driver, exec_cache, monkeypatch):
    if exec_cache == "off":
        monkeypatch.setenv("REPRO_EXEC_CACHE", "0")
    EXECUTION_CACHE.clear()
    expected = {
        sql: _reference(sql, tiny_db) for pair in pairs.values() for sql in pair
    }
    for name, (first, second) in pairs.items():
        assert expected[first] != expected[second], f"{name}: the pair cannot fail"
    # Two rounds: fresh bindings first, exact repeats second; within a
    # round every shape alternates its two bindings.
    order = [sql for _ in range(2) for pair in pairs.values() for sql in pair]
    with _driver(driver, tiny_db) as submit:
        for sql in order:
            response = submit(sql)
            assert response["status"] == "ok", (driver, sql, response.get("error"))
            assert _bits(response["value"]) == expected[sql], (driver, sql)
    EXECUTION_CACHE.clear()
