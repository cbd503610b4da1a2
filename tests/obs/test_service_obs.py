"""Service-level observability: trace field, metrics op, slowlog op,
injectable clock, and stats surviving worker restarts."""

from __future__ import annotations

import pytest

from repro.core.execcache import EXECUTION_CACHE
from repro.obs import FakeClock, parse_exposition
from repro.serve import QueryService, ServiceConfig
from repro.serve.server import dispatch
from repro.tpch.sql import (
    EXTENDED_TPCH_SQL,
    GROUPBY_SQL,
    TPCH_SQL,
    projection_sql,
    selection_sql,
)


@pytest.fixture
def service(tiny_db):
    EXECUTION_CACHE.clear()
    service = QueryService(
        ServiceConfig(workers=2, queue_depth=8), db=tiny_db
    )
    with service:
        yield service
    EXECUTION_CACHE.clear()


class TestTraceField:
    def test_untraced_response_has_no_trace_key(self, service):
        response = service.submit(projection_sql(1))
        assert response["status"] == "ok"
        assert "trace" not in response

    def test_traced_response_has_span_tree(self, service):
        response = service.submit(projection_sql(1), trace_query=True)
        assert response["status"] == "ok"
        tree = response["trace"]
        assert tree["name"] == "query"
        assert [child["name"] for child in tree["children"]] == [
            "admission", "plan_cache", "execute", "serialize",
        ]

    def test_error_response_still_carries_trace(self, service):
        response = service.submit("SELECT nope FROM lineitem",
                                  trace_query=True)
        assert response["status"] == "error"
        assert response["trace"]["name"] == "query"

    def test_dispatch_routes_trace_flag(self, service):
        response = dispatch(service, {"sql": projection_sql(1), "trace": True})
        assert response["status"] == "ok"
        assert "trace" in response
        response = dispatch(service, {"sql": projection_sql(1)})
        assert "trace" not in response


class TestMetricsOp:
    def test_exposition_parses_and_counts_queries(self, service):
        service.submit(projection_sql(1))
        service.submit(projection_sql(1), engine="DBMS C")
        service.submit("SELECT broken", engine="DBMS C")
        response = dispatch(service, {"op": "metrics"})
        assert response["status"] == "ok"
        samples = parse_exposition(response["metrics"])
        queries = samples["repro_queries_total"]
        assert queries[(("engine", "Typer"), ("status", "ok"))] == 1
        assert queries[(("engine", "DBMS C"), ("status", "ok"))] == 1
        assert queries[(("engine", "DBMS C"), ("status", "error"))] == 1
        assert samples["repro_query_latency_seconds_count"][
            (("engine", "Typer"),)
        ] == 1
        assert samples["__types__"]["repro_query_latency_seconds"] == "histogram"

    def test_cache_counters_are_mirrored(self, service):
        sql = projection_sql(2)
        service.submit(sql)
        service.submit(sql)
        samples = parse_exposition(service.metrics_text())
        plan, execution = (("cache", "plan"),), (("cache", "execution"),)
        assert samples["repro_cache_misses_total"][plan] == 1
        assert samples["repro_cache_hits_total"][plan] == 1
        assert samples["repro_cache_entries"][plan] == 1
        assert samples["repro_cache_misses_total"][execution] >= 1
        assert samples["repro_cache_hits_total"][execution] >= 1
        assert samples["repro_service_workers"][()] == 2

    def test_rejected_queries_count_but_skip_latency(self, tiny_db):
        EXECUTION_CACHE.clear()
        service = QueryService(
            ServiceConfig(workers=1, queue_depth=1), db=tiny_db
        )
        # Not started: the queue fills and rejects without execution.
        service._queue.put_nowait(object())
        response = service.submit(projection_sql(1))
        assert response["status"] == "rejected"
        samples = parse_exposition(service.metrics_text())
        assert samples["repro_queries_total"][
            (("engine", "Typer"), ("status", "rejected"))
        ] == 1
        assert "repro_query_latency_seconds_count" not in samples


class TestPruningObservability:
    """Pruning decisions surface in the stats snapshot and the metric
    families, from both executors' result details."""

    @pytest.fixture
    def pruned_service(self, tiny_db):
        from tests.obs.test_trace_golden import _sorted_twin

        EXECUTION_CACHE.clear()
        service = QueryService(
            ServiceConfig(workers=1, queue_depth=8), db=_sorted_twin(tiny_db)
        )
        with service:
            yield service
        EXECUTION_CACHE.clear()

    def test_stats_snapshot_accumulates_decisions(self, pruned_service):
        for _ in range(2):
            response = pruned_service.submit(TPCH_SQL["Q6"])
            assert response["status"] == "ok"
        stats = pruned_service.stats_snapshot()["pruning"]
        assert stats["queries"] == 2
        assert stats["queries_pruned"] == 2
        assert stats["morsels_pruned"] == 2 * 1
        assert stats["morsels_scanned"] == 2 * 1
        assert stats["rows_pruned"] > 0
        assert stats["bytes_pruned"] > 0

    def test_metrics_expose_prune_counters(self, pruned_service):
        pruned_service.submit(TPCH_SQL["Q6"])
        samples = parse_exposition(pruned_service.metrics_text())
        assert samples["repro_prune_queries_total"][()] == 1
        assert samples["repro_prune_morsels_pruned_total"][()] == 1
        assert samples["repro_prune_morsels_scanned_total"][()] == 1
        assert samples["repro_prune_rows_pruned_total"][()] > 0

    def test_unprunable_queries_leave_totals_untouched(self, service):
        service.submit(projection_sql(2))
        service.submit(TPCH_SQL["Q6"])  # shuffled fixture: nothing prunes
        stats = service.stats_snapshot()["pruning"]
        assert stats["queries"] == 0
        assert stats["morsels_pruned"] == 0


class TestDecisionSink:
    """Every stage decision lands in one totals table, whichever
    executor made it, and the counters mirror that table at scrape."""

    #: total -> the unlabelled counter that mirrors it
    MIRRORS = {
        ("pruning", "queries_pruned"): "repro_prune_queries_total",
        ("pruning", "morsels_scanned"): "repro_prune_morsels_scanned_total",
        ("pruning", "morsels_pruned"): "repro_prune_morsels_pruned_total",
        ("pruning", "rows_pruned"): "repro_prune_rows_pruned_total",
        ("rollups", "routed"): "repro_rollup_routed_total",
        ("rollups", "rows_read"): "repro_rollup_rows_read_total",
        ("rollups", "base_rows_avoided"): "repro_rollup_base_rows_avoided_total",
        ("encoded_agg", "queries_code_domain"): "repro_encoded_agg_queries_total",
        ("compile", "queries"): "repro_compile_queries_total",
        ("chooser", "declined"): "repro_chooser_declined_total",
    }

    def run(self, db, executor: str):
        statements = (
            TPCH_SQL["Q1"], TPCH_SQL["Q6"], selection_sql(0.02, db),
            projection_sql(2), GROUPBY_SQL, EXTENDED_TPCH_SQL["Q3"],
        )
        EXECUTION_CACHE.clear()
        service = QueryService(
            ServiceConfig(workers=1, queue_depth=8, timeout_s=120.0,
                          executor=executor, process_workers=2),
            db=db,
        )
        with service:
            for sql in statements:
                response = service.submit(sql)
                assert response["status"] == "ok", response
            stats = service.stats_snapshot()
            samples = parse_exposition(service.metrics_text())
        EXECUTION_CACHE.clear()
        return stats, samples

    @pytest.fixture(scope="class")
    def reuse_db(self, tiny_db):
        """Clustered + rollup twin: the break at Q6's upper date bound
        lets its window prune, the one past Q1's cutoff lets Q1 route."""
        from repro.rollup import PartitionSpec, build_and_attach, partitioned_database
        from repro.tpch.schema import DATE_1995_01_01, DATE_1998_09_02

        db = partitioned_database(
            tiny_db,
            PartitionSpec("l_shipdate", (DATE_1995_01_01, DATE_1998_09_02 + 0.5)),
        )
        build_and_attach(db)
        return db

    @pytest.fixture(scope="class")
    def thread_run(self, reuse_db):
        return self.run(reuse_db, "thread")

    @pytest.fixture(scope="class")
    def process_run(self, reuse_db):
        return self.run(reuse_db, "process")

    def test_executors_record_equal_decisions(self, thread_run, process_run):
        thread_stats, process_stats = thread_run[0], process_run[0]
        for block in ("pruning", "rollups", "encoded_agg", "compile"):
            # compile.cache counts the process-global program cache.
            thread_block = {k: v for k, v in thread_stats[block].items() if k != "cache"}
            process_block = {k: v for k, v in process_stats[block].items() if k != "cache"}
            assert thread_block == process_block, block
        assert thread_stats["rollups"]["routed"] >= 2  # Q1 and the group-by
        assert thread_stats["rollups"]["fallbacks"] >= 1
        assert thread_stats["pruning"]["queries_pruned"] >= 1
        assert thread_stats["compile"]["queries"] == 1

    def test_pool_counts_dispatches_not_requests(self, process_run):
        """A rollup-routed request never reaches the pool: it moves
        neither ``WorkerPool.queries_run`` nor its scrape-time mirror."""
        stats, samples = process_run
        requests = sum(samples["repro_queries_total"].values())
        dispatched = stats["process_pool"]["queries_run"]
        assert stats["rollups"]["routed"] >= 2
        assert dispatched == requests - stats["rollups"]["routed"]
        assert samples["repro_pool_queries_total"][()] == dispatched

    @pytest.mark.parametrize("executor", ("thread", "process"))
    def test_counters_mirror_totals(self, request, executor):
        stats, samples = request.getfixturevalue(f"{executor}_run")
        for (block, key), family in self.MIRRORS.items():
            assert samples[family][()] == stats[block][key], family
        labelled = (
            ("repro_rollup_fallbacks_total", "reason",
             stats["rollups"]["fallback_reasons"]),
            ("repro_encoded_agg_aggregates_total", "mode", {
                "code-domain": stats["encoded_agg"]["aggregates_code_domain"],
                "decoded": stats["encoded_agg"]["aggregates_decoded"],
            }),
            ("repro_chooser_decisions_total", "chosen", stats["chooser"]["chosen"]),
        )
        for family, label, counts in labelled:
            expected = {
                ((label, value),): count for value, count in counts.items() if count
            }
            assert samples.get(family, {}) == expected, family
        assert sum(stats["rollups"]["fallback_reasons"].values()) == (
            stats["rollups"]["fallbacks"]
        )


class TestSlowlogOp:
    def test_slowest_first_with_traces(self, service):
        service.submit(projection_sql(1), trace_query=True)
        service.submit(TPCH_SQL["Q1"])
        service.submit(projection_sql(1))  # cached: fast
        response = dispatch(service, {"op": "slowlog"})
        assert response["status"] == "ok"
        entries = response["slowlog"]
        assert len(entries) == 3
        latencies = [entry["latency_ms"] for entry in entries]
        assert latencies == sorted(latencies, reverse=True)
        traced = [entry for entry in entries if entry["trace"]]
        assert len(traced) == 1
        assert traced[0]["sql"] == projection_sql(1)

    def test_capacity_keeps_only_slowest(self, tiny_db):
        EXECUTION_CACHE.clear()
        service = QueryService(
            ServiceConfig(workers=1, slowlog_capacity=2), db=tiny_db
        )
        latencies = []
        with service:
            for degree in (1, 2, 3, 4):
                response = service.submit(projection_sql(degree))
                assert response["status"] == "ok"
                latencies.append(response["latency_ms"])
        entries = service.slowlog_snapshot()
        assert len(entries) == 2
        kept = [entry["latency_ms"] for entry in entries]
        expected = sorted(latencies, reverse=True)[:2]
        # Response latencies round to 3 decimals, slowlog entries to 6.
        assert kept == pytest.approx(expected, abs=1e-3)

    def test_rejected_queries_stay_out_of_slowlog(self, tiny_db):
        service = QueryService(
            ServiceConfig(workers=1, queue_depth=1), db=tiny_db
        )
        service._queue.put_nowait(object())
        assert service.submit(projection_sql(1))["status"] == "rejected"
        assert service.slowlog_snapshot() == []


class TestInjectableClock:
    def test_latency_is_deterministic_with_fake_clock(self, tiny_db):
        EXECUTION_CACHE.clear()
        service = QueryService(
            ServiceConfig(workers=1),
            db=tiny_db,
            clock=FakeClock(step=0.001),
        )
        with service:
            response = service.submit(projection_sql(4))
        assert response["latency_ms"] > 0
        again = QueryService(
            ServiceConfig(workers=1), db=tiny_db, clock=FakeClock(step=0.001)
        )
        EXECUTION_CACHE.clear()
        with again:
            repeat = again.submit(projection_sql(4))
        assert repeat["latency_ms"] == response["latency_ms"]

    def test_stats_survive_worker_pool_restarts(self, tiny_db):
        """Counters must accumulate across stop()/start() cycles: the
        stats object belongs to the service, not to its worker pool."""
        EXECUTION_CACHE.clear()
        service = QueryService(ServiceConfig(workers=2), db=tiny_db)
        with service:
            assert service.submit(projection_sql(1))["status"] == "ok"
            assert service.submit("SELECT broken")["status"] == "error"
        before = service.stats.snapshot()
        assert before["submitted"] == 2

        with service:  # restart the worker pool
            assert service.submit(projection_sql(1))["status"] == "ok"
        after = service.stats.snapshot()
        assert after["submitted"] == 3
        assert after["ok"] == before["ok"] + 1
        assert after["errors"] == before["errors"]

        # The metrics registry survives the restart too.
        samples = parse_exposition(service.metrics_text())
        assert samples["repro_queries_total"][
            (("engine", "Typer"), ("status", "ok"))
        ] == 2


@pytest.fixture(scope="module")
def process_service(tiny_db):
    EXECUTION_CACHE.clear()
    service = QueryService(
        ServiceConfig(
            workers=1, timeout_s=120.0, executor="process", process_workers=2
        ),
        db=tiny_db,
    )
    with service:
        yield service
    EXECUTION_CACHE.clear()


class TestProcessPoolAggregation:
    def test_worker_metrics_aggregate_over_result_channel(
        self, process_service
    ):
        assert process_service.submit(projection_sql(2))["status"] == "ok"
        samples = parse_exposition(process_service.metrics_text())
        morsels = samples["repro_worker_morsels_total"]
        assert sum(morsels.values()) >= 2  # both ranges were executed
        assert all(
            dict(key)["worker"] in ("0", "1") for key in morsels
        )
        seconds = samples["repro_worker_morsel_seconds_count"]
        assert sum(seconds.values()) == sum(morsels.values())
        assert samples["repro_pool_workers_alive"][()] == 2
        assert samples["repro_pool_queries_total"][()] >= 1
        rows = samples["repro_worker_rows_total"]
        assert sum(rows.values()) >= 1
