"""TCP and stdin frontends over :class:`~repro.serve.service.QueryService`.

The TCP server speaks the line-delimited JSON protocol of
:mod:`repro.serve.protocol`; each connection is handled on its own
thread (``ThreadingTCPServer``) and each request line blocks only its
own connection -- concurrency and admission control live in the
service's worker pool, not here.

The REPL reads bare SQL lines from stdin (``:engine NAME``, ``:stats``,
``:quit`` directives) so the service is usable without any network.
"""

from __future__ import annotations

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
    return service.submit(
        sql,
        engine=message.get("engine"),
        options=options,
        timeout=message.get("timeout"),
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
    """Execute bare SQL lines from ``stdin``; directives start with ':'."""
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
            parts = line[1:].split()
            if parts[0] in ("quit", "exit", "q"):
                return
            if parts[0] == "stats":
                stdout.write(protocol.encode(service.stats_snapshot()).decode())
            elif parts[0] == "metrics":
                stdout.write(service.metrics_text())
            elif parts[0] == "slowlog":
                stdout.write(protocol.encode({"slowlog": service.slowlog_snapshot()}).decode())
            elif parts[0] == "rollups":
                stdout.write(
                    protocol.encode(
                        {"rollups": service.stats_snapshot()["rollups"]}
                    ).decode()
                )
            elif parts[0] == "explain" and len(parts) > 1:
                from repro.sql import SqlError

                sql = line[1:].split(None, 1)[1]
                try:
                    report = service.explain(sql)
                except SqlError as exc:
                    stdout.write(f"error: {exc}\n")
                else:
                    stdout.write(
                        protocol.encode(
                            {"explain": protocol.jsonable(report)}
                        ).decode()
                    )
            elif parts[0] == "engine" and len(parts) > 1:
                engine = " ".join(parts[1:])  # engine names may contain spaces
                stdout.write(f"engine set to {engine}\n")
            else:
                stdout.write(f"unknown directive {line!r}\n")
            stdout.flush()
            continue
        response = service.submit(line, engine=engine)
        stdout.write(protocol.encode(response).decode())
        stdout.flush()
