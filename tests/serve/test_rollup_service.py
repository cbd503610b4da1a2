"""Rollup routing through the service layer: stats, metrics, ops.

The service observes every routing decision -- hit or reasoned
fallback -- from both executors, folds it into ``stats_snapshot()``
and the ``repro_rollup_*`` metric families, and exposes the summary
through the ``rollups`` wire op and the ``:rollups`` REPL directive.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.core.execcache import EXECUTION_CACHE
from repro.obs import parse_exposition
from repro.rollup import PartitionSpec, build_and_attach, partitioned_database
from repro.serve import QueryService, ServiceConfig
from repro.serve.server import dispatch, run_repl
from repro.tpch.schema import DATE_1998_09_02
from repro.tpch.sql import GROUPBY_SQL, TPCH_SQL


@pytest.fixture(scope="module")
def routed_db(tiny_db):
    db = partitioned_database(
        tiny_db, PartitionSpec("l_shipdate", (2300.0, DATE_1998_09_02 + 0.5))
    )
    build_and_attach(db)
    return db


@pytest.fixture
def service(routed_db):
    EXECUTION_CACHE.clear()
    service = QueryService(
        ServiceConfig(workers=1, queue_depth=8), db=routed_db
    )
    with service:
        yield service
    EXECUTION_CACHE.clear()


class TestStats:
    def test_snapshot_accumulates_hits_and_fallbacks(self, service):
        assert service.submit(GROUPBY_SQL)["status"] == "ok"
        assert service.submit(TPCH_SQL["Q1"])["status"] == "ok"
        assert service.submit(TPCH_SQL["Q6"])["status"] == "ok"
        stats = service.stats_snapshot()["rollups"]
        assert stats["tables"] == ["lineitem_by_flag_status"]
        assert stats["queries"] == 3
        assert stats["routed"] == 2
        assert stats["fallbacks"] == 1
        assert stats["rows_read"] > 0
        assert stats["base_rows_avoided"] > stats["rows_read"]
        assert stats["base_bytes_avoided"] > stats["bytes_read"] > 0

    def test_routed_response_still_matches_base_value(self, service, routed_db):
        from repro.engines import TyperEngine

        response = service.submit(GROUPBY_SQL)
        assert response["status"] == "ok"
        assert response["value"] == TyperEngine().run_groupby(routed_db).value

    def test_disabled_toggle_counts_nothing(self, tiny_db):
        """A database without rollups is never routed, so routing counts
        nothing."""
        EXECUTION_CACHE.clear()
        with QueryService(
            ServiceConfig(workers=1, queue_depth=8), db=tiny_db
        ) as service:
            assert service.submit(GROUPBY_SQL)["status"] == "ok"
            stats = service.stats_snapshot()["rollups"]
        assert stats["tables"] == []
        assert stats["queries"] == 0 and stats["routed"] == 0
        EXECUTION_CACHE.clear()


class TestMetrics:
    def test_families_and_counts(self, service):
        service.submit(GROUPBY_SQL)
        service.submit(TPCH_SQL["Q6"])
        samples = parse_exposition(service.metrics_text())
        assert samples["repro_rollup_routed_total"][()] == 1
        assert samples["repro_rollup_fallbacks_total"][
            (("reason", "unsupported-method"),)
        ] == 1
        assert samples["repro_rollup_rows_read_total"][()] > 0
        assert samples["repro_rollup_base_rows_avoided_total"][()] > 0
        assert samples["repro_rollup_tables"][()] == 1

    def test_fallback_reasons_are_labelled(self, service):
        service.submit(TPCH_SQL["Q1"], engine="DBMS R")
        samples = parse_exposition(service.metrics_text())
        assert samples["repro_rollup_fallbacks_total"][
            (("reason", "engine-finisher-not-decomposable"),)
        ] == 1


class TestWireAndRepl:
    def test_dispatch_rollups_op(self, service):
        service.submit(GROUPBY_SQL)
        response = dispatch(service, {"op": "rollups"})
        assert response["status"] == "ok"
        assert response["rollups"]["routed"] == 1
        assert response["rollups"]["tables"] == ["lineitem_by_flag_status"]

    def test_unknown_op_mentions_rollups(self, service):
        response = dispatch(service, {"op": "nope"})
        assert "rollups" in response["error"]

    def test_repl_rollups_directive(self, service):
        stdin = io.StringIO(f"{GROUPBY_SQL}\n:rollups\n:quit\n")
        stdout = io.StringIO()
        run_repl(service, stdin=stdin, stdout=stdout)
        payloads = [
            json.loads(line)
            for line in stdout.getvalue().splitlines()
            if line.startswith("{")
        ]
        rollups = [p["rollups"] for p in payloads if "rollups" in p]
        assert rollups and rollups[0]["routed"] == 1


class TestProcessExecutor:
    def test_process_service_routes_identically(self, routed_db):
        EXECUTION_CACHE.clear()
        thread_service = QueryService(
            ServiceConfig(workers=1, queue_depth=8), db=routed_db
        )
        with thread_service:
            expected = thread_service.submit(TPCH_SQL["Q1"])
        EXECUTION_CACHE.clear()
        process_service = QueryService(
            ServiceConfig(workers=1, queue_depth=8, executor="process"),
            db=routed_db,
        )
        with process_service:
            response = process_service.submit(TPCH_SQL["Q1"])
            stats = process_service.stats_snapshot()["rollups"]
        EXECUTION_CACHE.clear()
        assert response["status"] == "ok"
        assert response["value"] == expected["value"]
        assert stats["routed"] == 1 and stats["queries"] == 1
