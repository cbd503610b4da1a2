"""Entry point: ``python -m repro.serve``.

Modes:

* default -- listen on TCP and serve the line-JSON protocol.
* ``--repl`` -- read bare SQL from stdin (no network).
* ``--smoke`` -- self-contained concurrency check: start the service
  and a TCP server in-process, fire a concurrent batch of SQL requests
  over real sockets (every statement twice), then assert that all
  succeeded and that the repeats were served from the execution cache.
  This is the CI gate; it exits non-zero on any violation.
* ``--obs-smoke`` -- observability check: start the server, run a few
  queries (one traced), fetch ``metrics`` + ``slowlog`` over the
  socket and validate that the exposition parses and the trace covers
  the whole request path.  Also a CI gate.
"""

from __future__ import annotations

import argparse
import json

from repro.serve.client import QueryClient, run_batch
from repro.serve.server import QueryServer, run_repl
from repro.serve.service import QueryService, ServiceConfig


def _config(args: argparse.Namespace) -> ServiceConfig:
    return ServiceConfig(
        workers=args.workers,
        queue_depth=args.queue_depth,
        timeout_s=args.timeout,
        default_engine=args.engine,
        scale_factor=args.scale_factor,
        seed=args.seed,
        executor=args.executor,
        process_workers=args.process_workers,
    )


def _serve(args: argparse.Namespace) -> int:
    service = QueryService(_config(args)).start()
    server = QueryServer(service, host=args.host, port=args.port)
    host, port = server.address
    print(f"serving on {host}:{port} "
          f"(workers={args.workers}, queue={args.queue_depth})", flush=True)
    if args.ready_file:
        with open(args.ready_file, "w", encoding="utf-8") as handle:
            handle.write(f"{host} {port}\n")
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.stop()
    return 0


def _smoke_statements() -> list[str]:
    from repro.tpch.sql import GROUPBY_SQL, JOIN_SQL, TPCH_SQL, projection_sql

    statements = [projection_sql(degree) for degree in (1, 2, 3, 4)]
    statements += list(JOIN_SQL.values())
    statements.append(GROUPBY_SQL)
    statements += [TPCH_SQL["Q1"], TPCH_SQL["Q6"]]
    return statements


def _smoke(args: argparse.Namespace) -> int:
    engines = ("DBMS R", "DBMS C", "Typer", "Tectorwise")
    statements = _smoke_statements()
    requests = []
    for index in range(max(args.requests, 8)):
        requests.append({
            "sql": statements[index % len(statements)],
            "engine": engines[index % len(engines)],
        })
    config = _config(args)
    if config.queue_depth < len(requests):
        # The smoke asserts all-success; admission rejections are
        # exercised deterministically in tests/serve instead.
        config = ServiceConfig(**{**config.__dict__, "queue_depth": len(requests)})

    service = QueryService(config).start()
    server = QueryServer(service, host="127.0.0.1", port=0)
    host, port = server.address
    import threading

    listener = threading.Thread(target=server.serve_forever, daemon=True)
    listener.start()
    try:
        # Wave 1 concurrently, then the same statements again: wave 2
        # must be served from the execution cache.
        first = run_batch(host, port, requests, timeout=args.timeout)
        repeats = run_batch(host, port, requests, timeout=args.timeout)
    finally:
        server.shutdown()
        server.server_close()
        service.stop()

    responses = first + repeats
    failures = [r for r in responses if r.get("status") != "ok"]
    uncached_repeats = [r for r in repeats if not r.get("cached")]
    stats = service.stats_snapshot()
    print(json.dumps({"stats": stats}, indent=2, sort_keys=True))
    print(f"requests answered: {len(responses)} "
          f"({len(first)} concurrent unique + {len(repeats)} concurrent repeats)")
    if failures:
        print(f"FAIL: {len(failures)} non-ok responses; first: {failures[0]}")
        return 1
    # The cached-repeat invariant is a thread-executor property: the
    # process executor re-runs queries morsel-parallel in the pool,
    # where results merge fresh every time (and are bit-identical to
    # single-process runs by construction, asserted in tests/core).
    if args.executor == "thread" and uncached_repeats:
        print(f"FAIL: {len(uncached_repeats)} repeat responses were not "
              f"served from the execution cache; first: {uncached_repeats[0]}")
        return 1
    if args.executor == "thread":
        print("smoke OK: all responses ok, all repeats cache hits")
    else:
        print("smoke OK: all responses ok (process executor)")
    return 0


def _span_names(node: dict, into: set) -> set:
    into.add(node["name"])
    for child in node.get("children", ()):
        _span_names(child, into)
    return into


def _obs_smoke(args: argparse.Namespace) -> int:
    from repro.obs import parse_exposition

    service = QueryService(_config(args)).start()
    server = QueryServer(service, host="127.0.0.1", port=0)
    host, port = server.address
    import threading

    listener = threading.Thread(target=server.serve_forever, daemon=True)
    listener.start()
    statements = _smoke_statements()
    failures: list[str] = []
    try:
        with QueryClient(host, port, timeout=args.timeout) as client:
            responses = [
                client.query(statements[0], trace=True),
                client.query(statements[1]),
                client.query(statements[-1]),
            ]
            metrics = client.metrics()
            slowlog = client.slowlog()
    finally:
        server.shutdown()
        server.server_close()
        service.stop()

    for response in responses:
        if response.get("status") != "ok":
            failures.append(f"query failed: {response}")
    trace_tree = responses[0].get("trace")
    if not trace_tree:
        failures.append("traced query returned no trace")
    else:
        names = _span_names(trace_tree, set())
        missing = {
            "query", "admission", "plan_cache", "parse", "plan",
            "execute", "morsel", "serialize",
        } - names
        if missing:
            failures.append(f"trace is missing spans: {sorted(missing)}")
    try:
        samples = parse_exposition(metrics.get("metrics", ""))
    except ValueError as exc:
        failures.append(f"metrics exposition does not parse: {exc}")
        samples = {}
    for required in (
        "repro_queries_total",
        "repro_query_latency_seconds_bucket",
        "repro_cache_misses_total",
        "repro_queue_depth",
        "repro_service_workers",
    ):
        if not samples.get(required):
            failures.append(f"metrics exposition lacks {required}")
    if args.executor == "process" and not samples.get("repro_worker_morsels_total"):
        failures.append("metrics lack worker-pool morsel counters")
    entries = slowlog.get("slowlog") or []
    if len(entries) != len(responses):
        failures.append(
            f"slowlog has {len(entries)} entries, expected {len(responses)}"
        )
    latencies = [entry.get("latency_ms", 0.0) for entry in entries]
    if latencies != sorted(latencies, reverse=True):
        failures.append(f"slowlog is not sorted slowest-first: {latencies}")
    if not any(entry.get("trace") for entry in entries):
        failures.append("no slowlog entry carries a span tree")

    print(f"obs-smoke: {len(responses)} queries, "
          f"{sum(len(v) for k, v in samples.items() if k != '__types__')} "
          f"metric samples, {len(entries)} slowlog entries")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("obs-smoke OK: trace complete, exposition parses, slowlog ordered")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Concurrent SQL query service over the four engines.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7432,
                        help="TCP port (0 picks an ephemeral port)")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--queue-depth", type=int, default=16)
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="per-request deadline in seconds")
    parser.add_argument("--engine", default="Typer",
                        help="default engine (DBMS R, DBMS C, Typer, Tectorwise)")
    parser.add_argument("--scale-factor", type=float, default=0.01)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--executor", choices=("thread", "process"),
                        default="thread",
                        help="query execution backend: GIL-bound service "
                             "threads, or a morsel-parallel process pool "
                             "with shared-memory columns")
    parser.add_argument("--process-workers", type=int, default=None,
                        help="process-pool size for --executor process "
                             "(default: auto)")
    parser.add_argument("--ready-file",
                        help="write 'host port' here once listening")
    parser.add_argument("--repl", action="store_true",
                        help="serve a stdin SQL REPL instead of TCP")
    parser.add_argument("--smoke", action="store_true",
                        help="run the in-process concurrency smoke test")
    parser.add_argument("--obs-smoke", action="store_true",
                        help="run the tracing/metrics/slowlog smoke test")
    parser.add_argument("--requests", type=int, default=12,
                        help="unique requests in the smoke batch (min 8)")
    args = parser.parse_args(argv)

    if args.smoke:
        return _smoke(args)
    if args.obs_smoke:
        return _obs_smoke(args)
    if args.repl:
        service = QueryService(_config(args)).start()
        try:
            run_repl(service)
        finally:
            service.stop()
        return 0
    return _serve(args)


if __name__ == "__main__":
    raise SystemExit(main())
