"""TCP server, wire protocol, dispatch and the stdin REPL."""

import io
import json
import socket

import pytest

from repro.core.execcache import EXECUTION_CACHE
from repro.serve import (
    QueryClient,
    QueryServer,
    QueryService,
    ServiceConfig,
    run_batch,
    run_repl,
)
from repro.serve.protocol import decode, encode, jsonable
from repro.serve.server import dispatch
from repro.tpch.sql import GROUPBY_SQL, JOIN_SQL, projection_sql


@pytest.fixture(scope="module")
def service(tiny_db):
    EXECUTION_CACHE.clear()
    service = QueryService(
        ServiceConfig(workers=4, queue_depth=32, timeout_s=60.0), db=tiny_db
    )
    with service:
        yield service
    EXECUTION_CACHE.clear()


@pytest.fixture(scope="module")
def server(service):
    import threading

    server = QueryServer(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    with server:
        yield server
        server.shutdown()
    thread.join(timeout=10)


class TestProtocol:
    def test_encode_decode_round_trip(self):
        message = {"op": "sql", "sql": "SELECT 1", "engine": "Typer"}
        assert decode(encode(message).rstrip(b"\n")) == message

    def test_encode_is_one_line(self):
        assert encode({"a": "x\ny"}).count(b"\n") == 1

    def test_jsonable_flattens_tuple_keys(self):
        out = jsonable({("a", "b"): 1})
        assert out == {"a,b": 1}


class TestDispatch:
    def test_ping(self, service):
        assert dispatch(service, {"op": "ping"})["status"] == "ok"

    def test_stats(self, service):
        response = dispatch(service, {"op": "stats"})
        assert response["status"] == "ok"
        assert "submitted" in response["stats"]

    def test_stats_exposes_plan_cache_and_executor(self, service):
        """The op=stats response carries the plan-cache counters, the
        executor mode and the storage section."""
        assert dispatch(service, {"sql": projection_sql(1)})["status"] == "ok"
        assert dispatch(service, {"sql": projection_sql(1)})["status"] == "ok"
        stats = dispatch(service, {"op": "stats"})["stats"]
        plan_cache = stats["plan_cache"]
        for counter in ("hits", "misses", "evictions", "entries", "capacity"):
            assert isinstance(plan_cache[counter], int)
        assert plan_cache["hits"] >= 1
        assert plan_cache["misses"] >= 1
        assert stats["executor"] == "thread"
        storage = stats["storage"]
        assert storage["database_loaded"] is True  # fixture injects a db
        assert storage["stored_bytes"] <= storage["logical_bytes"]
        assert storage["compression_ratio"] >= 1.0
        assert storage["encoded_columns"] > 0

    def test_stats_without_database_reports_toggle_only(self):
        service = QueryService(ServiceConfig(workers=1))
        storage = service.stats_snapshot()["storage"]
        assert storage == {"database_loaded": False}

    def test_unknown_op(self, service):
        response = dispatch(service, {"op": "explode"})
        assert response["status"] == "error"
        assert "unknown op" in response["error"]

    def test_sql_requires_sql_field(self, service):
        response = dispatch(service, {"op": "sql"})
        assert response["status"] == "error"
        assert "sql" in response["error"]

    def test_options_must_be_object(self, service):
        response = dispatch(
            service, {"op": "sql", "sql": projection_sql(1), "options": 7}
        )
        assert response["status"] == "error"


class TestTcp:
    def test_ping_and_stats_over_socket(self, server):
        host, port = server.address
        with QueryClient(host, port) as client:
            assert client.ping()["status"] == "ok"
            assert "latency" in client.stats()["stats"]

    def test_query_over_socket(self, server):
        host, port = server.address
        with QueryClient(host, port) as client:
            response = client.query(projection_sql(1), engine="DBMS C")
            assert response["status"] == "ok"
            assert response["engine"] == "DBMS C"

    def test_malformed_json_line_gets_error_response(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"this is not json\n")
            line = sock.makefile("rb").readline()
        response = json.loads(line)
        assert response["status"] == "error"
        assert "malformed JSON" in response["error"]

    def test_concurrent_batch_and_cache_hits(self, server):
        host, port = server.address
        statements = [projection_sql(1 + index % 4) for index in range(6)]
        statements += [GROUPBY_SQL, JOIN_SQL["small"]]
        requests = [{"sql": sql} for sql in statements]
        assert len(requests) >= 8
        first = run_batch(host, port, requests, timeout=120.0)
        assert all(r["status"] == "ok" for r in first), first
        repeats = run_batch(host, port, requests, timeout=120.0)
        assert all(r["status"] == "ok" and r["cached"] for r in repeats), repeats


class TestRepl:
    def test_repl_executes_and_switches_engine(self, service):
        stdin = io.StringIO(
            f"{projection_sql(1)}\n:engine DBMS R\n{projection_sql(1)}\n:quit\n"
        )
        stdout = io.StringIO()
        run_repl(service, stdin=stdin, stdout=stdout)
        lines = [
            json.loads(line)
            for line in stdout.getvalue().splitlines()
            if line.startswith("{")
        ]
        ok = [line for line in lines if line.get("status") == "ok"]
        assert {line["engine"] for line in ok} == {"Typer", "DBMS R"}

    def test_repl_stats_directive(self, service):
        stdin = io.StringIO(":stats\n:quit\n")
        stdout = io.StringIO()
        run_repl(service, stdin=stdin, stdout=stdout)
        assert "submitted" in stdout.getvalue()
