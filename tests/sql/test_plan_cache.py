"""The plan LRU shared by the query service and the shard coordinator
(:class:`repro.sql.PlanCache`)."""

from __future__ import annotations

import threading

import pytest

from repro.sql import PlanCache, SqlError, api
from repro.sql.api import compile_sql, plan_sql
from repro.sql.tokens import normalize_sql
from repro.tpch.sql import GROUPBY_SQL, TPCH_SQL, projection_sql


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
    """Two threads that miss the same shape both plan it (outside the
    lock) and both return the entry stored first."""
    cache = PlanCache(4)
    both_planning = threading.Barrier(2)
    plan = api.plan_statement

    def slow_plan(statement):
        both_planning.wait(timeout=10.0)
        return plan(statement)

    monkeypatch.setattr(api, "plan_statement", slow_plan)
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
    :func:`normalize_sql` shape text."""
    sql = "SELECT l_returnflag, SUM(l_quantity) FROM lineitem GROUP BY l_returnflag"
    cache = PlanCache(4)
    bound = cache.compile(sql)
    assert bound.method == "run_compiled"
    reformatted = sql.lower().replace(" from ", "\n  FROM  ")
    assert cache.compile(reformatted) is bound
    assert cache.get(normalize_sql(reformatted).shape) == plan_sql(sql)
    assert len(cache) == 1


def test_a_fresh_literal_rebinds_the_cached_shape(monkeypatch):
    """Another binding of a cached shape is a hit: bound and lowered to
    the plan :func:`compile_sql` gives it, without parsing or planning;
    an exact repeat returns the same lowered statement."""
    variant = TPCH_SQL["Q6"].replace("l_quantity < 24", "l_quantity < 25")
    expected, expected_plan = compile_sql(variant), plan_sql(variant)
    cache = PlanCache(4)
    q6 = cache.compile(TPCH_SQL["Q6"])
    monkeypatch.setattr(api, "plan_statement", lambda statement: pytest.fail("re-planned"))
    rebound = cache.compile(variant)
    assert (q6.method, rebound.method) == ("run_tpch", "run_compiled")
    assert rebound == expected and rebound.plan == expected_plan
    assert rebound.shape == q6.shape == normalize_sql(variant).shape
    assert cache.compile(variant + "  ") is rebound
    assert cache.stats()["hits"] == 2 and len(cache) == 1


def test_a_failed_binding_leaves_the_shape_usable():
    cache = PlanCache(4)
    good = cache.compile(TPCH_SQL["Q6"])
    with pytest.raises(SqlError, match="malformed date '1994-02-30'"):
        cache.compile(TPCH_SQL["Q6"].replace("1994-01-01", "1994-02-30"))
    assert cache.compile(TPCH_SQL["Q6"]) is good
    assert len(cache) == 1


def test_a_shape_that_fails_to_plan_is_not_cached():
    cache = PlanCache(4)
    for _ in range(2):
        with pytest.raises(SqlError, match="unknown column"):
            cache.compile("SELECT SUM(l_nope) FROM lineitem WHERE l_quantity < 3")
    assert len(cache) == 0 and cache.stats()["misses"] == 2


def test_threads_rebinding_shared_shapes_get_their_own_plans():
    """Eight threads, one small cache, two shapes with many bindings,
    a short switch interval: every statement gets exactly the call
    :func:`compile_sql` gives its text, whatever the interleaving."""
    import random
    import sys

    q6 = TPCH_SQL["Q6"]
    texts = [q6.replace("l_quantity < 24", f"l_quantity < {n}") for n in range(20, 30)]
    texts += [projection_sql(d).replace("SUM(", f"SUM({d} * ") for d in (1, 2, 3)]
    expected = {sql: compile_sql(sql) for sql in texts}
    cache = PlanCache(3)
    failures: list = []

    def worker(seed):
        rng = random.Random(seed)
        for _ in range(60):
            sql = rng.choice(texts)
            bound = cache.compile(sql)
            if bound != expected[sql] or bound.plan != expected[sql].plan:
                failures.append(sql)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    stats = cache.stats()
    assert stats["hits"] + stats["misses"] == 8 * 60 and stats["entries"] <= 3
