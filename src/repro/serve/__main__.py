"""Entry point: ``python -m repro.serve``.

Modes:

* default -- listen on TCP and serve the line-JSON protocol.
* ``--repl`` -- read bare SQL from stdin (no network).

``tests/serve/test_cli.py`` starts this entry point as a subprocess and
drives it over TCP, the way a user does.
"""

from __future__ import annotations

import argparse

from repro.serve.server import QueryServer, run_repl
from repro.serve.service import QueryService, ServiceConfig


def _config(args: argparse.Namespace) -> ServiceConfig:
    # ServiceConfig takes 0 from callers that attach a database; this
    # entry point always generates one, which needs a positive size.
    if not args.scale_factor > 0:
        raise ValueError("scale_factor must be positive")
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


def _serve(args: argparse.Namespace, config: ServiceConfig) -> int:
    service = QueryService(config).start()
    server = QueryServer(service, host=args.host, port=args.port)
    host, port = server.address
    print(f"serving on {host}:{port} "
          f"(workers={config.workers}, queue={config.queue_depth})", flush=True)
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
    args = parser.parse_args(argv)
    try:
        config = _config(args)
    except ValueError as exc:
        parser.error(str(exc))

    if args.repl:
        service = QueryService(config).start()
        try:
            run_repl(service)
        finally:
            service.stop()
        return 0
    return _serve(args, config)


if __name__ == "__main__":
    raise SystemExit(main())
