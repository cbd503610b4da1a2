"""Shard clusters: N shard nodes x R replicas over one parent database.

Two spawn modes share one surface (``endpoints[shard][replica]`` ->
``(host, port)``):

- ``spawn="thread"``: every replica is a
  :class:`~repro.serve.service.QueryService` +
  :class:`~repro.serve.server.QueryServer` pair on daemon threads in
  this process, replicas of one shard sharing that shard's in-memory
  database.  Cheap, deterministic, and what the equivalence matrix
  uses.
- ``spawn="process"``: each shard's database is exported into its own
  shm segment and each replica is a real spawned **node process** that
  attaches the segment zero-copy and serves the JSON-lines protocol;
  node services may themselves run ``executor="process"`` and own a
  per-node worker pool.  This is the production shape (and what the
  kill-a-node fault tests exercise).

Teardown ordering is the whole point of :meth:`ShardCluster.close`:
sockets stop first, node processes exit second, shm segments unlink
last -- one atexit hook with an explicit order, never N independent
hooks racing at interpreter exit (each exported
:class:`~repro.storage.shm.SharedDatabase` is ``disown_atexit()``-ed
and adopted here).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading

from repro.shard.partition import FACT_TABLE, build_shards

#: Exit code a node process dies with when honouring an injected kill.
KILLED_EXIT_CODE = 17


def _node_main(manifest, port_conn, executor, process_workers, workers, faults):
    """Entry point of one spawned shard-node process."""
    from repro.serve.server import QueryServer
    from repro.serve.service import QueryService, ServiceConfig
    from repro.storage import shm

    attached = shm.attach_database(manifest)
    config = ServiceConfig(
        workers=workers,
        executor=executor,
        process_workers=process_workers,
        shard_node=True,
        fault_ops=faults,
        scale_factor=0.0,  # the db is attached, never generated
    )
    service = QueryService(config, db=attached.database).start()
    server = QueryServer(service)
    port_conn.send(server.address)
    port_conn.close()
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        if server.killed:
            # An injected kill is a real process death: no cleanup.
            os._exit(KILLED_EXIT_CODE)
        server.server_close()
        service.stop()
        attached.close()


class ShardCluster:
    """N shards x R replicas serving one sharded database."""

    def __init__(
        self,
        db,
        n_shards: int = 2,
        mode: str = "hash",
        replicas: int = 1,
        spawn: str = "thread",
        node_executor: str = "thread",
        node_workers: int = 2,
        process_workers: int | None = 2,
        faults: bool = False,
    ):
        if spawn not in ("thread", "process"):
            raise ValueError(f"unknown spawn mode {spawn!r}")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.db = db
        self.n_shards = n_shards
        self.mode = mode
        self.replicas = replicas
        self.spawn = spawn
        self.faults = faults
        self.shards = build_shards(db, n_shards, mode)
        self.shard_rows = [
            shard.table(FACT_TABLE).n_rows for shard in self.shards
        ]
        #: ``endpoints[shard][replica]`` -> (host, port)
        self.endpoints: list[list[tuple[str, int]]] = []
        self._services: list = []
        self._servers: list = []
        self._threads: list[threading.Thread] = []
        self._segments: list = []
        self._processes: list = []
        self._closed = False
        try:
            if spawn == "thread":
                self._start_threads(node_executor, node_workers, process_workers)
            else:
                self._start_processes(node_executor, node_workers, process_workers)
        except BaseException:
            self.close()
            raise
        atexit.register(self.close)

    # -- startup -------------------------------------------------------
    def _start_threads(self, node_executor, node_workers, process_workers):
        from repro.serve.server import QueryServer
        from repro.serve.service import QueryService, ServiceConfig

        for shard_db in self.shards:
            replica_endpoints = []
            for _ in range(self.replicas):
                config = ServiceConfig(
                    workers=node_workers,
                    executor=node_executor,
                    process_workers=process_workers,
                    shard_node=True,
                    fault_ops=self.faults,
                    scale_factor=0.0,
                )
                service = QueryService(config, db=shard_db).start()
                server = QueryServer(service)
                thread = threading.Thread(
                    target=server.serve_forever,
                    kwargs={"poll_interval": 0.1},
                    daemon=True,
                    name=f"shard-node-{len(self.endpoints)}",
                )
                thread.start()
                self._services.append(service)
                self._servers.append(server)
                self._threads.append(thread)
                replica_endpoints.append(server.address)
            self.endpoints.append(replica_endpoints)

    def _start_processes(self, node_executor, node_workers, process_workers):
        from repro.storage import shm

        ctx = multiprocessing.get_context("spawn")
        for shard_db in self.shards:
            exported = shm.export_database(shard_db)
            # The cluster adopts exit-time ownership (see module docs).
            exported.disown_atexit()
            self._segments.append(exported)
            replica_endpoints = []
            for _ in range(self.replicas):
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=_node_main,
                    args=(
                        exported.manifest,
                        child_conn,
                        node_executor,
                        process_workers,
                        node_workers,
                        self.faults,
                    ),
                    name=f"shard-node-{len(self.endpoints)}-{len(replica_endpoints)}",
                    daemon=True,
                )
                process.start()
                child_conn.close()
                if not parent_conn.poll(timeout=120.0):
                    raise RuntimeError(
                        f"shard node {process.name} did not report a port"
                    )
                replica_endpoints.append(tuple(parent_conn.recv()))
                parent_conn.close()
                self._processes.append(process)
            self.endpoints.append(replica_endpoints)

    # -- teardown ------------------------------------------------------
    def close(self) -> None:
        """Ordered teardown: sockets -> node processes -> shm segments.
        Idempotent; safe from ``finally``/``atexit``/signal paths."""
        if self._closed:
            return
        self._closed = True
        for server in self._servers:
            try:
                server.shutdown()
                server.server_close()
            except Exception:
                pass
        for service in self._services:
            try:
                service.stop()
            except Exception:
                pass
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(timeout=5.0)
        # Segments unlink strictly after every attached node is gone.
        for exported in self._segments:
            exported.unlink()
        atexit.unregister(self.close)

    def __enter__(self) -> "ShardCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def segment_names(self) -> list[str]:
        return [exported.segment_name for exported in self._segments]
