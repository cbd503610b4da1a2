"""Minimal client for the query service.

``QueryClient`` is a blocking line-protocol client (one socket, one
request in flight).  ``run_batch`` opens one client per thread and
fires a concurrent batch.
"""

from __future__ import annotations

import socket
import threading

from repro.serve import protocol


class QueryClient:
    """Blocking client: one JSON line out, one JSON line back."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, timeout: float = 60.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def request(self, message: dict) -> dict:
        self._file.write(protocol.encode(message))
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return protocol.decode(line)

    def query(
        self,
        sql: str,
        engine: str | None = None,
        trace: bool = False,
        **options,
    ) -> dict:
        message: dict = {"sql": sql}
        if engine is not None:
            message["engine"] = engine
        if trace:
            message["trace"] = True
        if options:
            message["options"] = options
        return self.request(message)

    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    def metrics(self) -> dict:
        """Prometheus text exposition under the ``metrics`` key."""
        return self.request({"op": "metrics"})

    def slowlog(self) -> dict:
        """The N slowest queries (slowest first) under ``slowlog``."""
        return self.request({"op": "slowlog"})

    def rollups(self) -> dict:
        """Rollup routing totals under the ``rollups`` key."""
        return self.request({"op": "rollups"})

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "QueryClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_batch(
    host: str, port: int, requests: list[dict], timeout: float = 120.0
) -> list[dict]:
    """Fire ``requests`` concurrently (one connection per request) and
    return responses in request order."""
    responses: list[dict | None] = [None] * len(requests)

    def one(index: int, message: dict) -> None:
        try:
            with QueryClient(host, port, timeout=timeout) as client:
                responses[index] = client.request(message)
        except (OSError, ValueError) as exc:
            responses[index] = {
                "status": protocol.STATUS_ERROR,
                "error": f"client failure: {exc}",
            }

    threads = [
        threading.Thread(target=one, args=(index, message), daemon=True)
        for index, message in enumerate(requests)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout)
    return [
        response
        if response is not None
        else {"status": protocol.STATUS_ERROR, "error": "no response"}
        for response in responses
    ]
