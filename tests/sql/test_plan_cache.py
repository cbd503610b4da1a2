"""The plan LRU shared by the query service and the shard coordinator
(:class:`repro.sql.PlanCache`)."""

from __future__ import annotations

import threading

from repro.sql import PlanCache, api
from repro.sql.tokens import normalize_sql
from repro.tpch.sql import GROUPBY_SQL, projection_sql


def test_hit_miss_and_formatting_insensitivity():
    cache = PlanCache(4)
    first = cache.compile(GROUPBY_SQL)
    again = cache.compile("  " + GROUPBY_SQL.lower().replace("\n", "  \n"))
    assert again is first
    assert cache.stats() == {
        "hits": 1, "misses": 1, "evictions": 0, "entries": 1, "capacity": 4,
    }


def test_least_recently_used_entry_is_evicted():
    cache = PlanCache(2)
    one = cache.compile(projection_sql(1))
    cache.compile(projection_sql(2))
    assert cache.compile(projection_sql(1)) is one  # refreshes degree 1
    cache.compile(projection_sql(3))  # evicts degree 2, the oldest
    assert cache.stats()["evictions"] == 1
    assert cache.compile(projection_sql(1)) is one
    misses = cache.stats()["misses"]
    cache.compile(projection_sql(2))
    assert cache.stats()["misses"] == misses + 1


def test_concurrent_misses_converge_on_one_entry(monkeypatch):
    """Two threads that miss the same text both lower it (outside the
    lock) and both return the entry stored first."""
    cache = PlanCache(4)
    both_lowering = threading.Barrier(2)
    lower = api.compile_sql

    def slow_compile(sql):
        both_lowering.wait(timeout=10.0)
        return lower(sql)

    monkeypatch.setattr(api, "compile_sql", slow_compile)
    bound = [None, None]

    def worker(index):
        bound[index] = cache.compile(GROUPBY_SQL)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
    assert bound[0] is not None and bound[0] is bound[1]
    stats = cache.stats()
    assert (stats["misses"], stats["hits"], stats["entries"]) == (2, 0, 1)


def test_key_is_the_normalized_text_alone():
    """Two formattings of one statement are one entry, stored under its
    :func:`normalize_sql` text."""
    sql = "SELECT l_returnflag, SUM(l_quantity) FROM lineitem GROUP BY l_returnflag"
    cache = PlanCache(4)
    bound = cache.compile(sql)
    assert bound.method == "run_compiled"
    reformatted = sql.lower().replace(" from ", "\n  FROM  ")
    assert cache.compile(reformatted) is bound
    assert cache.get(normalize_sql(reformatted)) is bound
    assert len(cache) == 1
