"""TCP and stdin frontends over :class:`~repro.serve.service.QueryService`.

The TCP server speaks the line-delimited JSON protocol of
:mod:`repro.serve.protocol`; each connection is handled on its own
thread (``ThreadingTCPServer``) and each request line blocks only its
own connection -- concurrency and admission control live in the
service's worker pool, not here.

The REPL reads bare SQL lines from stdin so the service is usable
without any network; its ``:op`` directives are answered by the same
:func:`dispatch` as the TCP ops (``:engine NAME`` and ``:quit`` aside).
"""

from __future__ import annotations

import math
import socketserver
import sys
import threading

from repro.serve import protocol
from repro.serve.service import QueryService


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        service: QueryService = self.server.service  # type: ignore[attr-defined]
        for line in self.rfile:
            if not line.strip():
                continue
            try:
                message = protocol.decode(line)
            except ValueError as exc:
                self.wfile.write(
                    protocol.encode({"status": protocol.STATUS_ERROR, "error": str(exc)})
                )
                continue
            response = dispatch(service, message)
            self.wfile.write(protocol.encode(response))
            if message.get("op") == "shutdown":
                threading.Thread(
                    target=self.server.shutdown, daemon=True
                ).start()
                return
            if message.get("op") == "die" and response.get("dying"):
                # Fault injection (gated in dispatch): simulate a node
                # crash *after* acking, so the client's next request --
                # not this one -- observes the dead node.
                self.wfile.flush()
                # The node stops listening *before* this connection
                # closes: the client waits for that EOF to know the
                # node is gone.  A node process hard-exits as soon as
                # its ``serve_forever`` returns with ``killed`` set.
                self.server.killed = True
                self.server.shutdown()
                self.server.server_close()
                return


def _engine_error(message: dict) -> dict | None:
    """The error response for an ``engine`` field that is neither absent
    nor a string, checked before any work is counted or done."""
    engine = message.get("engine")
    if engine is None or isinstance(engine, str):
        return None
    return {"status": protocol.STATUS_ERROR, "error": "'engine' must be a string"}


def dispatch(service: QueryService, message: dict) -> dict:
    """Route one decoded request to the service."""
    op = message.get("op")
    if op == "ping":
        return {"status": protocol.STATUS_OK, "pong": True}
    if op == "stats":
        return {"status": protocol.STATUS_OK, "stats": service.stats_snapshot()}
    if op == "metrics":
        return {"status": protocol.STATUS_OK, "metrics": service.metrics_text()}
    if op == "slowlog":
        return {"status": protocol.STATUS_OK, "slowlog": service.slowlog_snapshot()}
    if op == "rollups":
        return {
            "status": protocol.STATUS_OK,
            "rollups": service.stats_snapshot()["rollups"],
        }
    if op == "explain":
        sql = message.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            return {
                "status": protocol.STATUS_ERROR,
                "error": "explain needs a non-empty 'sql' string",
            }
        from repro.sql import SqlError

        try:
            return {
                "status": protocol.STATUS_OK,
                "explain": protocol.jsonable(service.explain(sql)),
            }
        except SqlError as exc:
            return {"status": protocol.STATUS_ERROR, "error": str(exc)}
    if op == "shutdown":
        return {"status": protocol.STATUS_OK, "stopping": True}
    if op == "partial":
        if not getattr(service.config, "shard_node", False):
            return {
                "status": protocol.STATUS_ERROR,
                "error": "this service is not a shard node",
            }
        engine_error = _engine_error(message)
        if engine_error:
            return engine_error
        from repro.shard import wire

        try:
            method, kwargs_items = wire.decode_call(message)
            partial = service.execute_partial(
                method, kwargs_items, engine=message.get("engine")
            )
        except wire.CorruptPartial as exc:
            return {"status": protocol.STATUS_ERROR, "error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - a node must answer, not die
            return {
                "status": protocol.STATUS_ERROR,
                "error": f"{type(exc).__name__}: {exc}",
            }
        return {"status": protocol.STATUS_OK, **wire.encode_partial(partial)}
    if op == "die":
        if not (service.config.shard_node and service.config.fault_ops):
            return {
                "status": protocol.STATUS_ERROR,
                "error": "die is enabled only on shard nodes configured "
                "with fault_ops=True",
            }
        return {"status": protocol.STATUS_OK, "dying": True}
    if op is not None:
        return {
            "status": protocol.STATUS_ERROR,
            "error": (
                f"unknown op {op!r} "
                f"(expected ping, stats, metrics, slowlog, rollups, "
                f"explain, partial, die or shutdown)"
            ),
        }
    sql = message.get("sql")
    if not isinstance(sql, str) or not sql.strip():
        return {
            "status": protocol.STATUS_ERROR,
            "error": "request needs a non-empty 'sql' string (or an 'op')",
        }
    options = message.get("options") or {}
    if not isinstance(options, dict):
        return {
            "status": protocol.STATUS_ERROR,
            "error": "'options' must be a JSON object",
        }
    engine_error = _engine_error(message)
    if engine_error:
        return engine_error
    timeout = message.get("timeout")
    if timeout is not None and (
        isinstance(timeout, bool)
        or not isinstance(timeout, (int, float))
        or not 0 < timeout < math.inf  # also false for NaN
    ):
        return {
            "status": protocol.STATUS_ERROR,
            "error": "'timeout' must be a positive number of seconds",
        }
    return service.submit(
        sql,
        engine=message.get("engine"),
        options=options,
        timeout=timeout,
        trace_query=bool(message.get("trace")),
    )


class QueryServer(socketserver.ThreadingTCPServer):
    """One listening socket bound to a running QueryService."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, service: QueryService, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _Handler)
        self.service = service
        #: Set by an honoured ``die`` op just before the server stops.
        self.killed = False

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[:2]


def run_repl(service: QueryService, stdin=None, stdout=None) -> None:
    """Execute bare SQL lines from ``stdin``.  ``:engine NAME`` and
    ``:quit`` are the REPL's own directives; any other ``:op [SQL]``
    is answered by :func:`dispatch` as the TCP op of that name."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    engine = service.config.default_engine
    stdout.write(
        f"repro query REPL -- engine {engine}; "
        f":engine NAME, :explain SQL, :stats, :metrics, :slowlog, "
        f":rollups, :quit\n"
    )
    stdout.flush()
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        if line.startswith(":"):
            op, _, text = line[1:].partition(" ")
            text = text.strip()
            if op in ("quit", "exit", "q"):
                return
            if op == "engine" and text:
                engine = text  # engine names may contain spaces
                stdout.write(f"engine set to {engine}\n")
                stdout.flush()
                continue
            response = dispatch(service, {"op": op, "sql": text})
        else:
            response = service.submit(line, engine=engine)
        stdout.write(protocol.encode(response).decode())
        stdout.flush()
        if response.get("stopping"):  # ``:shutdown`` ends the REPL as it ends the server
            return
