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
from repro.shard import wire
from repro.tpch.sql import GROUPBY_SQL, JOIN_SQL, TPCH_SQL, projection_sql


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

    def test_partial_checks_engine_like_the_query_path(self, tiny_db):
        """A shard node's ``partial`` op rejects a non-string ``engine``
        before any work: nothing is submitted and no metric series is
        named after the bad value."""
        node = QueryService(
            ServiceConfig(shard_node=True, scale_factor=0.0), db=tiny_db
        )
        frame = {**wire.encode_call("run_q6", ()), "engine": ["Typer"]}
        response = dispatch(node, frame)
        assert response == {"status": "error", "error": "'engine' must be a string"}
        assert node.stats_snapshot()["submitted"] == 0
        assert "['Typer']" not in node.metrics_text()


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

    def test_bad_field_types_get_one_error_each(self, server, service):
        """A query frame whose ``engine`` or ``timeout`` has the wrong
        type is answered with one error line, submits nothing, and
        leaves the connection serving."""
        sql = json.dumps(projection_sql(1))
        bad_timeout = "'timeout' must be a positive number of seconds"
        bad_engine = "'engine' must be a string"
        frames = [
            (f'{{"sql": {sql}, "timeout": "abc"}}', bad_timeout),
            (f'{{"sql": {sql}, "timeout": -1}}', bad_timeout),
            (f'{{"sql": {sql}, "timeout": 0}}', bad_timeout),
            (f'{{"sql": {sql}, "timeout": true}}', bad_timeout),
            (f'{{"sql": {sql}, "timeout": NaN}}', bad_timeout),
            (f'{{"sql": {sql}, "timeout": Infinity}}', bad_timeout),
            (f'{{"sql": {sql}, "timeout": [5]}}', bad_timeout),
            (f'{{"sql": {sql}, "engine": ["Typer"]}}', bad_engine),
            (f'{{"sql": {sql}, "engine": 7}}', bad_engine),
        ]
        submitted = service.stats_snapshot()["submitted"]
        host, port = server.address
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(
                "".join(frame + "\n" for frame, _ in frames).encode()
                + encode({"op": "ping"})
            )
            reader = sock.makefile("rb")
            responses = [json.loads(reader.readline()) for _ in range(len(frames) + 1)]
        *errors, pong = responses
        assert errors == [{"status": "error", "error": error} for _, error in frames]
        assert pong == {"status": "ok", "pong": True}
        assert service.stats_snapshot()["submitted"] == submitted

    def test_concurrent_batch_and_cache_hits(self, server):
        host, port = server.address
        statements = [projection_sql(1 + index % 4) for index in range(6)]
        statements += [GROUPBY_SQL, *JOIN_SQL.values(), TPCH_SQL["Q1"], TPCH_SQL["Q6"]]
        engines = ("DBMS R", "DBMS C", "Typer", "Tectorwise")
        requests = [
            {"sql": sql, "engine": engines[index % len(engines)]}
            for index, sql in enumerate(statements)
        ]
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

    @pytest.mark.parametrize(
        ("directive", "status", "key"),
        [
            (":metrics", "ok", "metrics"),
            (":slowlog", "ok", "slowlog"),
            (f":explain {GROUPBY_SQL}", "ok", "explain"),
            (":explain", "error", "error"),
            (":nosuch", "error", "error"),
        ],
        ids=["metrics", "slowlog", "explain", "explain-no-sql", "unknown"],
    )
    def test_repl_directive_prints_the_op_response(self, service, directive, status, key):
        """Every directive but ``:engine`` and ``:quit`` prints the
        response of the TCP op of the same name, as one JSON line."""
        stdout = io.StringIO()
        run_repl(service, stdin=io.StringIO(f"{directive}\n:quit\n"), stdout=stdout)
        banner, *lines = stdout.getvalue().splitlines()
        assert len(lines) == 1, lines
        response = json.loads(lines[0])
        op, _, sql = directive[1:].partition(" ")
        assert response["status"] == status and key in response
        assert set(response) == set(dispatch(service, {"op": op, "sql": sql}))

    def test_repl_shutdown_ends_it_like_the_server(self, service):
        stdout = io.StringIO()
        run_repl(service, stdin=io.StringIO(":shutdown\n:ping\n"), stdout=stdout)
        banner, *lines = stdout.getvalue().splitlines()
        assert [json.loads(line) for line in lines] == [
            {"status": "ok", "stopping": True}
        ]
