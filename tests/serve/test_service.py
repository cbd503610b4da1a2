"""QueryService: admission control, worker pool, caches and stats.

Admission tests run against an *unstarted* service (no workers ever
drain the queue), so queue-full rejection and deadline timeout are
deterministic rather than racy.
"""

import pytest

from repro.core.execcache import EXECUTION_CACHE
from repro.serve import QueryService, ServiceConfig
from repro.tpch.sql import GROUPBY_SQL, TPCH_SQL, projection_sql


@pytest.fixture
def service(tiny_db):
    EXECUTION_CACHE.clear()
    service = QueryService(
        # queue_depth must hold a full 10-submission burst (see
        # test_concurrent_submissions_all_succeed) before a worker pops.
        ServiceConfig(workers=3, queue_depth=16, timeout_s=30.0), db=tiny_db
    )
    with service:
        yield service
    EXECUTION_CACHE.clear()


class TestAdmissionControl:
    def test_deadline_timeout_without_workers(self, tiny_db):
        stalled = QueryService(ServiceConfig(queue_depth=4), db=tiny_db)
        response = stalled.submit(projection_sql(1), timeout=0.05)
        assert response["status"] == "timeout"
        assert "deadline" in response["error"]

    def test_full_queue_rejects_cleanly(self, tiny_db):
        stalled = QueryService(ServiceConfig(queue_depth=2), db=tiny_db)
        for _ in range(2):  # abandoned requests still occupy the queue
            stalled.submit(projection_sql(1), timeout=0.01)
        response = stalled.submit(projection_sql(1), timeout=0.01)
        assert response["status"] == "rejected"
        assert "queue full" in response["error"]
        stats = stalled.stats_snapshot()
        assert stats["rejected"] == 1
        assert stats["timeouts"] == 2

    def test_rejection_does_not_block(self, tiny_db):
        import time

        stalled = QueryService(ServiceConfig(queue_depth=1), db=tiny_db)
        stalled.submit(projection_sql(1), timeout=0.01)
        start = time.perf_counter()
        response = stalled.submit(projection_sql(1), timeout=10.0)
        assert response["status"] == "rejected"
        assert time.perf_counter() - start < 1.0


class TestExecution:
    def test_ok_response_shape(self, service):
        response = service.submit(projection_sql(2))
        assert response["status"] == "ok"
        assert response["workload"] == "projection-2"
        assert response["method"] == "run_projection"
        assert response["engine"] == "Typer"
        assert response["tuples"] > 0
        assert isinstance(response["value"], float)
        assert response["latency_ms"] > 0

    def test_engine_selection_per_request(self, service):
        for engine in ("DBMS R", "DBMS C", "Typer", "Tectorwise"):
            response = service.submit(projection_sql(1), engine=engine)
            assert response["status"] == "ok", response
            assert response["engine"] == engine
        values = {
            service.submit(projection_sql(1), engine=engine)["value"]
            for engine in ("DBMS R", "Typer")
        }
        assert len(values) == 1  # engines agree on the result

    def test_repeat_served_from_execution_cache(self, service):
        first = service.submit(GROUPBY_SQL)
        repeat = service.submit(GROUPBY_SQL)
        assert first["status"] == repeat["status"] == "ok"
        assert first["cached"] is False
        assert repeat["cached"] is True
        assert repeat["value"] == first["value"]

    def test_plan_cache_shared_across_formatting(self, service):
        service.submit("SELECT SUM(l_extendedprice) FROM lineitem")
        service.submit("select sum(L_EXTENDEDPRICE)   from LINEITEM;")
        stats = service.stats_snapshot()
        assert stats["plan_cache_entries"] == 1
        assert stats["plan_cache_hits"] >= 1

    def test_tpch_queries_run(self, service):
        for query_id in ("Q1", "Q6"):
            response = service.submit(TPCH_SQL[query_id])
            assert response["status"] == "ok", response
            assert response["workload"] == f"tpch-{query_id}"

    def test_options_pass_through(self, service):
        response = service.submit(
            TPCH_SQL["Q6"], engine="Tectorwise", options={"predicated": True}
        )
        assert response["status"] == "ok", response


class TestErrors:
    def test_bad_sql_reports_position(self, service):
        response = service.submit("SELECT FROM lineitem")
        assert response["status"] == "error"
        assert "line 1" in response["error"]

    def test_unknown_column(self, service):
        response = service.submit("SELECT nope FROM lineitem")
        assert response["status"] == "error"
        assert "unknown column" in response["error"]

    def test_unbindable_query(self, service):
        # A plain projection of a non-lineitem table: no template
        # matches and the compiler declines non-aggregate plans.
        response = service.submit("SELECT o_orderkey FROM orders")
        assert response["status"] == "error"
        assert "profiled workload" in response["error"]

    def test_unmatched_aggregate_falls_back_to_the_compiler(self, service):
        # Bound by the plan compiler (PR 9); previously an error.
        response = service.submit("SELECT SUM(o_totalprice) FROM orders")
        assert response["status"] == "ok", response
        assert response["method"] == "run_compiled"

    def test_unknown_engine(self, service):
        response = service.submit(projection_sql(1), engine="Postgres")
        assert response["status"] == "error"
        assert "unknown engine" in response["error"]

    @pytest.mark.parametrize("error", [KeyError("plan"), OverflowError("huge")])
    def test_any_exception_is_an_error_and_keeps_the_worker(
        self, service, monkeypatch, error
    ):
        def fail(sql):
            raise error

        monkeypatch.setattr(service, "compile", fail)
        for _ in range(len(service._workers) + 1):
            response = service.submit(projection_sql(1), timeout=10.0)
            assert response["status"] == "error", response
            assert response["error"] == str(error)
        assert all(worker.is_alive() for worker in service._workers)

    def test_errors_counted_in_stats(self, service):
        before = service.stats_snapshot()["errors"]
        service.submit("SELECT FROM lineitem")
        assert service.stats_snapshot()["errors"] == before + 1


class TestStats:
    def test_latency_percentiles_present(self, service):
        for _ in range(4):
            service.submit(projection_sql(1))
        latency = service.stats_snapshot()["latency"]
        assert set(latency) == {"p50_ms", "p90_ms", "p99_ms", "max_ms"}
        assert latency["p50_ms"] <= latency["max_ms"]

    def test_queue_depth_reported(self, service):
        assert service.stats_snapshot()["queue_depth"] == 0

    def test_concurrent_submissions_all_succeed(self, service):
        import threading

        responses = [None] * 10
        statements = [projection_sql(1 + index % 4) for index in range(10)]

        def submit(index):
            responses[index] = service.submit(statements[index])

        threads = [
            threading.Thread(target=submit, args=(index,)) for index in range(10)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert all(r is not None and r["status"] == "ok" for r in responses)
