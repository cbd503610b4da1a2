"""Process-executor service mode and the bounded plan cache."""

from __future__ import annotations

import pytest

from repro.core.execcache import EXECUTION_CACHE
from repro.serve import QueryService, ServiceConfig
from repro.tpch.sql import JOIN_SQL, TPCH_SQL, projection_sql


@pytest.fixture(scope="module")
def process_service(tiny_db):
    EXECUTION_CACHE.clear()
    service = QueryService(
        ServiceConfig(
            workers=2,
            queue_depth=16,
            timeout_s=120.0,
            executor="process",
            process_workers=2,
        ),
        db=tiny_db,
    )
    with service:
        yield service
    EXECUTION_CACHE.clear()


class TestConfigValidation:
    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            ServiceConfig(executor="fibers")

    def test_plan_cache_size_must_be_positive(self):
        with pytest.raises(ValueError, match="plan_cache_size"):
            ServiceConfig(plan_cache_size=0)

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("workers", 0),
            ("queue_depth", 0),
            ("queue_depth", -1),
            ("timeout_s", 0.0),
            ("timeout_s", -1.0),
            ("timeout_s", float("inf")),
            ("timeout_s", float("nan")),
            ("process_workers", 0),
        ],
    )
    def test_values_that_disable_the_service_rejected(self, field, value):
        """A zero queue depth is an unbounded ``queue.Queue``, and no
        worker or no deadline times every request out."""
        with pytest.raises(ValueError, match=field):
            ServiceConfig(**{field: value})


class TestProcessExecutor:
    def test_submit_runs_in_pool(self, process_service):
        response = process_service.submit(projection_sql(2))
        assert response["status"] == "ok", response
        assert response["tuples"] > 0
        stats = process_service.stats_snapshot()
        assert stats["executor"] == "process"
        assert stats["process_pool"]["n_workers"] == 2
        assert stats["process_pool"]["queries_run"] >= 1

    def test_results_match_thread_executor(self, tiny_db, process_service):
        """Same SQL, same engine, both executors: the responses must
        agree bit for bit (the pool merge is exact)."""
        EXECUTION_CACHE.clear()
        statements = [projection_sql(3), JOIN_SQL["large"], TPCH_SQL["Q6"]]
        thread_service = QueryService(
            ServiceConfig(workers=2, queue_depth=16, timeout_s=120.0),
            db=tiny_db,
        )
        with thread_service:
            for sql in statements:
                for engine in ("Typer", "DBMS C"):
                    via_pool = process_service.submit(sql, engine=engine)
                    via_thread = thread_service.submit(sql, engine=engine)
                    assert via_pool["status"] == via_thread["status"] == "ok"
                    assert via_pool["value"] == via_thread["value"], (sql, engine)
                    assert via_pool["tuples"] == via_thread["tuples"]

    def test_tpch_queries_run_morsel_parallel(self, process_service):
        for query in ("Q1", "Q6", "Q9", "Q18"):
            response = process_service.submit(TPCH_SQL[query])
            assert response["status"] == "ok", (query, response)

    def test_pool_survives_across_requests(self, process_service):
        """The pool is persistent: repeated submissions reuse the same
        worker processes instead of respawning (counted per query)."""
        before = process_service.stats_snapshot()["process_pool"]["queries_run"]
        for _ in range(3):
            assert process_service.submit(projection_sql(1))["status"] == "ok"
        after = process_service.stats_snapshot()["process_pool"]["queries_run"]
        assert after == before + 3
        assert process_service.pool().stats()["worker_dbgen_runs"] == 0

    def test_stop_closes_pool(self, tiny_db):
        EXECUTION_CACHE.clear()
        service = QueryService(
            ServiceConfig(executor="process", process_workers=1, timeout_s=120.0),
            db=tiny_db,
        )
        with service:
            assert service.submit(projection_sql(1))["status"] == "ok"
            pool = service._pool
            assert pool is not None
        assert service._pool is None
        with pytest.raises(RuntimeError, match="closed"):
            pool.run_query(None, "run_q1")


class TestPlanCacheLru:
    @pytest.fixture
    def service(self, tiny_db):
        EXECUTION_CACHE.clear()
        service = QueryService(
            ServiceConfig(workers=2, queue_depth=16, plan_cache_size=2),
            db=tiny_db,
        )
        with service:
            yield service
        EXECUTION_CACHE.clear()

    def test_capacity_is_enforced(self, service):
        for degree in (1, 2, 3, 4):
            assert service.submit(projection_sql(degree))["status"] == "ok"
        cache = service.stats_snapshot()["plan_cache"]
        assert cache["capacity"] == 2
        assert cache["entries"] == 2
        assert cache["misses"] == 4
        assert cache["evictions"] == 2

    def test_lru_keeps_recent_plans(self, service):
        service.submit(projection_sql(1))
        service.submit(projection_sql(2))
        service.submit(projection_sql(1))  # refresh 1 -> evicting drops 2
        service.submit(projection_sql(3))
        before = service.stats_snapshot()["plan_cache"]
        service.submit(projection_sql(1))  # still cached
        after = service.stats_snapshot()["plan_cache"]
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_hits_count_repeats_and_formatting(self, service):
        sql = projection_sql(2)
        service.submit(sql)
        service.submit(sql)
        service.submit("  " + sql.replace(" ", "   "))  # same normalized text
        cache = service.stats_snapshot()["plan_cache"]
        assert cache["hits"] >= 2
        assert cache["entries"] == 1
