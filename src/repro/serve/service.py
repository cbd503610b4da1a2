"""Concurrent query service: admission control + worker pool.

The service owns one generated database and one engine instance per
name; requests pick their engine (default configurable).  Admission is
a bounded queue -- a full queue rejects immediately with
``status="rejected"`` rather than building unbounded backlog -- and
every admitted request carries a deadline; a request that misses it
returns ``status="timeout"`` and is marked abandoned so a worker that
later pops it drops it instead of executing dead work.

Compiled plans are cached per normalized SQL text (the
parse/plan/lower pipeline is pure), and the engine
executions themselves hit the process-wide
:mod:`repro.core.execcache`, so repeated statements -- the
common case for a profiling service -- cost one dictionary lookup plus
a result snapshot.  Responses carry ``cached`` so callers can see which
tier served them.
"""

from __future__ import annotations

import math
import queue
import threading
from dataclasses import dataclass, field

from repro import memo
from repro.core.parallel import WorkerPool, normalized_call, run_call
from repro.engines import engine_by_name
from repro.obs import (
    Clock,
    DEFAULT_CLOCK,
    MetricsRegistry,
    SlowLog,
    Tracer,
    merge_snapshots,
    render_snapshot,
    trace,
)
from repro.serve.protocol import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    jsonable,
)
from repro.sql import PlanCache


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`QueryService`."""

    workers: int = 4
    queue_depth: int = 16
    timeout_s: float = 30.0
    default_engine: str = "Typer"
    scale_factor: float = 0.01
    seed: int = 7
    #: "thread" executes on the admission threads (GIL-bound);
    #: "process" runs each query morsel-parallel across a persistent
    #: :class:`repro.core.parallel.WorkerPool` of spawned processes.
    executor: str = "thread"
    #: Process-pool size for ``executor="process"`` (None = auto).
    process_workers: int | None = None
    #: Bound on the compiled-plan LRU cache.
    plan_cache_size: int = 64
    #: How many of the slowest queries the slowlog retains.
    slowlog_capacity: int = 32
    #: True on services fronting one shard of a sharded database: the
    #: server then accepts the ``partial`` op (execute-and-stop-before-
    #: the-finisher, see :meth:`QueryService.execute_partial`).
    shard_node: bool = False
    #: Fault injection: a shard node honours the ``die`` op only when
    #: set (see :class:`repro.shard.cluster.ShardCluster` ``faults=``).
    fault_ops: bool = False

    def __post_init__(self) -> None:
        if self.executor not in ("thread", "process"):
            raise ValueError(
                f"unknown executor {self.executor!r}; use 'thread' or 'process'"
            )
        # queue.Queue(maxsize=0) is unbounded, and no worker or a zero
        # deadline times every request out: each would silently disable
        # the service instead of configuring it.
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if not 0 < self.timeout_s < math.inf:
            raise ValueError("timeout_s must be positive and finite")
        if self.process_workers is not None and self.process_workers < 1:
            raise ValueError("process_workers must be None or >= 1")
        if self.plan_cache_size < 1:
            raise ValueError("plan_cache_size must be >= 1")
        if self.slowlog_capacity < 1:
            raise ValueError("slowlog_capacity must be >= 1")
        # An unknown default would fail every query that names no engine.
        engine_by_name(self.default_engine)


@dataclass
class _Request:
    """One admitted query and its completion rendezvous."""

    sql: str
    engine_name: str
    options: dict
    submitted_at: float
    queued_depth: int
    tracer: Tracer | None = None
    done: threading.Event = field(default_factory=threading.Event)
    response: dict | None = None
    lock: threading.Lock = field(default_factory=threading.Lock)
    abandoned: bool = False


#: Every unlabelled count of ``stats_snapshot()``: (block, key) ->
#: (counter family, help); block ``None`` is the snapshot's top level.
#: Registration and rendering both read this table.  The labelled
#: families (query outcomes, rollup fallbacks, aggregate modes, chooser
#: routes) hold the rest, and the blocks' sums are rendered from them.
COUNTERS = {
    (None, "cache_hits"):
        ("repro_queries_cached_total", "Queries served from the execution cache"),
    ("pruning", "queries"): (
        "repro_prune_eligible_queries_total",
        "Queries zone-map pruning planned a scan for"),
    ("pruning", "queries_pruned"): (
        "repro_prune_queries_total",
        "Queries that skipped at least one morsel via zone maps"),
    ("pruning", "morsels_scanned"): (
        "repro_prune_morsels_scanned_total",
        "Zone-map chunks scanned by prune-eligible queries"),
    ("pruning", "morsels_pruned"):
        ("repro_prune_morsels_pruned_total", "Zone-map chunks skipped without scanning"),
    ("pruning", "rows_pruned"):
        ("repro_prune_rows_pruned_total", "Rows skipped via zone maps"),
    ("pruning", "bytes_pruned"):
        ("repro_prune_bytes_pruned_total", "Column bytes skipped via zone maps"),
    ("rollups", "routed"):
        ("repro_rollup_routed_total", "Queries answered from a materialized rollup"),
    ("rollups", "rows_read"): (
        "repro_rollup_rows_read_total",
        "Pre-aggregated rollup rows read by routed queries"),
    ("rollups", "base_rows_avoided"): (
        "repro_rollup_base_rows_avoided_total",
        "Base-table rows routed queries did not scan"),
    ("rollups", "bytes_read"):
        ("repro_rollup_bytes_read_total", "Rollup bytes read by routed queries"),
    ("rollups", "base_bytes_avoided"): (
        "repro_rollup_base_bytes_avoided_total",
        "Base-table bytes routed queries did not scan"),
    ("encoded_agg", "queries"): (
        "repro_encoded_agg_eligible_queries_total",
        "Queries with a code-domain morph decision"),
    ("encoded_agg", "queries_code_domain"): (
        "repro_encoded_agg_queries_total",
        "Queries that aggregated at least one measure in the code domain"),
    ("compile", "queries"): (
        "repro_compile_queries_total",
        "Queries executed through a compiled kernel program"),
    ("compile", "joins"):
        ("repro_compile_joins_total", "Joins run by compiled kernel programs"),
    ("compile", "groups_emitted"): (
        "repro_compile_groups_emitted_total",
        "Groups emitted by compiled kernel programs"),
    ("chooser", "declined"):
        ("repro_chooser_declined_total", "Queries the engine chooser could not model"),
}


class ServiceStats:
    """The latency window: exact percentiles over the latest ``ok``
    outcomes.  Every count lives in the service's metrics registry."""

    KEEP_LATENCIES = 4096

    def __init__(self):
        self._lock = threading.Lock()
        self._latencies_ms: list[float] = []

    def record(self, latency_ms: float) -> None:
        with self._lock:
            self._latencies_ms.append(latency_ms)
            if len(self._latencies_ms) > self.KEEP_LATENCIES:
                del self._latencies_ms[: -self.KEEP_LATENCIES]

    def snapshot(self) -> dict:
        with self._lock:
            latencies = sorted(self._latencies_ms)
        if not latencies:
            return {}

        def pct(p: float) -> float:
            index = min(len(latencies) - 1, int(p * len(latencies)))
            return round(latencies[index], 3)

        return {
            "p50_ms": pct(0.50),
            "p90_ms": pct(0.90),
            "p99_ms": pct(0.99),
            "max_ms": round(latencies[-1], 3),
        }


class QueryService:
    """Thread-pooled SQL execution over the four engines."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        db=None,
        clock: Clock | None = None,
    ):
        self.config = config or ServiceConfig()
        #: Every latency/span measurement in this service reads this
        #: clock; tests inject a FakeClock for deterministic timings.
        self.clock = clock or DEFAULT_CLOCK
        self._db = db
        self._db_lock = threading.Lock()
        self._plans = PlanCache(self.config.plan_cache_size)
        self._pool = None
        self._pool_lock = threading.Lock()
        self._profiler = None
        self._profiler_lock = threading.Lock()
        self._queue: queue.Queue[_Request] = queue.Queue(
            maxsize=self.config.queue_depth
        )
        self.stats = ServiceStats()
        self.metrics = MetricsRegistry()
        self.slowlog = SlowLog(self.config.slowlog_capacity)
        self._register_metrics()
        self._workers: list[threading.Thread] = []
        self._stop = threading.Event()

    def _register_metrics(self) -> None:
        """Declare this service's metric families up front so the
        exposition is complete even before the first query."""
        m = self.metrics
        self._m_queries = m.counter(
            "repro_queries_total", "Queries by engine and status",
            ("engine", "status"),
        )
        self._m_latency = m.histogram(
            "repro_query_latency_seconds", "End-to-end query latency", ("engine",)
        )
        #: One family per counter over every cache of the process
        #: (:data:`repro.memo.SHARED`) plus this service's plan cache.
        self._m_caches = {
            kind: m.counter(
                f"repro_cache_{kind}_total", f"Cache {kind} by cache", ("cache",)
            )
            for kind in ("hits", "misses", "evictions")
        }
        self._m_cache_entries = m.gauge(
            "repro_cache_entries", "Entries currently cached", ("cache",)
        )
        self._m_queue_depth = m.gauge(
            "repro_queue_depth", "Requests waiting for admission"
        )
        self._m_workers = m.gauge(
            "repro_service_workers", "Admission worker threads"
        )
        self._m_pool_alive = m.gauge(
            "repro_pool_workers_alive", "Live morsel-pool worker processes"
        )
        self._m_pool_queries = m.counter(
            "repro_pool_queries_total",
            "Queries dispatched to the morsel pool (a routed one never is)",
        )
        self._m_rollup_tables = m.gauge(
            "repro_rollup_tables", "Rollup tables attached to the served database"
        )
        #: (block, key) -> its counter's one series, which exists (and
        #: is sampled at 0) from registration on.
        self._counters = {
            slot: m.counter(name, help_text).labels()
            for slot, (name, help_text) in COUNTERS.items()
        }
        for series in self._counters.values():
            series.inc(0)
        # Labelled: a series exists once a positive count was made.
        self._m_rollup_fallbacks = m.counter(
            "repro_rollup_fallbacks_total",
            "Rollup-eligible queries that fell back to base execution",
            ("reason",),
        )
        self._m_encoded_agg_aggregates = m.counter(
            "repro_encoded_agg_aggregates_total",
            "Aggregate slots by morph decision (code-domain vs decoded)",
            ("mode",),
        )
        self._m_chooser_decisions = m.counter(
            "repro_chooser_decisions_total",
            "Engine-chooser decisions by predicted-fastest route",
            ("chosen",),
        )

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "QueryService":
        if self._workers:
            raise RuntimeError("service already started")
        self._stop.clear()
        for index in range(self.config.workers):
            worker = threading.Thread(
                target=self._worker_loop, name=f"query-worker-{index}", daemon=True
            )
            worker.start()
            self._workers.append(worker)
        return self

    def stop(self) -> None:
        self._stop.set()
        for _ in self._workers:
            try:
                self._queue.put_nowait(None)  # wake blocked workers
            except queue.Full:
                break
        for worker in self._workers:
            worker.join(timeout=5.0)
        self._workers = []
        with self._pool_lock:
            if self._pool is not None:
                self._pool.close()
                self._pool = None

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def db(self):
        """The served database, generated lazily on first use."""
        with self._db_lock:
            if self._db is None:
                from repro.tpch import generate_database

                self._db = generate_database(
                    scale_factor=self.config.scale_factor, seed=self.config.seed
                )
            return self._db

    def pool(self):
        """The process executor's worker pool (created on first use so
        thread-mode services never spawn processes)."""
        with self._pool_lock:
            if self._pool is None:
                self._pool = WorkerPool(
                    self.db, n_workers=self.config.process_workers
                )
            return self._pool

    def compile(self, sql: str):
        """Compile through the per-service :class:`~repro.sql.PlanCache`
        (bounded at ``config.plan_cache_size`` entries)."""
        return self._plans.compile(sql)

    def _run(self, engine, method: str, kwargs_items: tuple, finish: bool = True):
        """One normalized call through the execution driver on this
        service's executor."""
        pool = self.pool() if self.config.executor == "process" else None
        # Span label: a thread node's partials are tagged "shard".
        label = self.config.executor if pool is not None or finish else "shard"
        return run_call(
            self.db, engine, method, kwargs_items,
            pool=pool, finish=finish, executor=label,
        )

    def execute_partial(self, method: str, kwargs_items: tuple, engine=None):
        """One shard's share of a scattered query: execute the already
        normalized call over this service's (shard) database and stop
        *before* the finisher, returning a still-mergeable partial
        QueryResult for the coordinator's exact cross-node merge.

        The coordinator lowered and normalized once; this node never
        parses SQL for scattered work.  Reuse is per shard: zone-map
        pruning runs against this shard's own morsels, and rollup
        routing contributes ExactSum partials instead of finished
        (rounded) values.
        """
        if not self.config.shard_node:
            raise RuntimeError("execute_partial requires a shard_node service")
        engine_name = engine or self.config.default_engine
        started = self.clock.now()
        status = STATUS_ERROR
        try:
            partial = self._run(
                engine_by_name(engine_name), method, tuple(kwargs_items), finish=False
            )
            self._record_decisions(partial, method)
            status = STATUS_OK
            return partial
        finally:
            latency_ms = (self.clock.now() - started) * 1e3
            self._count(engine_name, status, latency_ms, False)

    def queue_depth(self) -> int:
        return self._queue.qsize()

    def profiler(self):
        """The micro-arch profiler used to attach modeled TMAM costs
        (cycles, bytes) to ``execute`` spans."""
        with self._profiler_lock:
            if self._profiler is None:
                from repro.core.profiler import MicroArchProfiler

                self._profiler = MicroArchProfiler()
            return self._profiler

    # -- request path --------------------------------------------------
    def submit(
        self,
        sql: str,
        engine: str | None = None,
        options: dict | None = None,
        timeout: float | None = None,
        trace_query: bool = False,
    ) -> dict:
        """Run one statement; blocks the caller until a terminal status.

        ``trace_query=True`` attaches a span tree to the response (see
        :mod:`repro.obs.trace`); the default path stays untraced and
        pays only a ``None`` contextvar check at each instrumentation
        site.
        """
        deadline = timeout if timeout is not None else self.config.timeout_s
        engine_name = engine or self.config.default_engine
        tracer = None
        if trace_query:
            tracer = Tracer(clock=self.clock)
            tracer.start("query", sql=sql, engine=engine_name)
        request = _Request(
            sql=sql,
            engine_name=engine_name,
            options=dict(options or {}),
            submitted_at=self.clock.now(),
            queued_depth=self._queue.qsize(),
            tracer=tracer,
        )
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            response = self._finish(
                request,
                status=STATUS_REJECTED,
                error=(
                    f"admission queue full "
                    f"({self.config.queue_depth} requests queued)"
                ),
            )
            return response
        if request.done.wait(deadline):
            return request.response
        with request.lock:
            if request.done.is_set():  # finished while we took the lock
                return request.response
            request.abandoned = True
        return self._finish(
            request,
            status=STATUS_TIMEOUT,
            error=f"request missed its {deadline:.3f}s deadline",
        )

    def _count(self, engine_name: str, status: str, latency_ms, cached: bool) -> None:
        """Count one terminal outcome (a query, or a shard node's
        ``partial`` op) in the stats and the query/latency metrics;
        latency is kept for ``ok`` outcomes only."""
        ok = status == STATUS_OK
        with self.metrics.lock:
            self._m_queries.labels(engine=engine_name, status=status).inc()
            self._add(None, "cache_hits", cached)
            if ok:
                self._m_latency.labels(engine=engine_name).observe(latency_ms / 1e3)
        if ok:
            self.stats.record(latency_ms)

    def _finish(
        self, request: _Request, *, skip_if_abandoned: bool = False, **fields
    ) -> dict | None:
        """Publish a terminal response exactly once per request."""
        with request.lock:
            if request.done.is_set():
                return request.response
            if skip_if_abandoned and request.abandoned:
                return None  # the submitter already reported a timeout
            latency_ms = (self.clock.now() - request.submitted_at) * 1e3
            response = {
                "status": STATUS_ERROR,
                "engine": request.engine_name,
                "latency_ms": round(latency_ms, 3),
                "queued_depth": request.queued_depth,
                "cached": False,
                **fields,
            }
            if response.get("trace") is None:
                response.pop("trace", None)  # untraced responses stay as before
            status = response["status"]
            self._count(
                request.engine_name, status, latency_ms, bool(response.get("cached"))
            )
            if status != STATUS_REJECTED:  # rejected queries never ran
                self.slowlog.record(
                    sql=request.sql,
                    engine=request.engine_name,
                    status=status,
                    latency_ms=latency_ms,
                    trace=response.get("trace"),
                )
            request.response = response
            request.done.set()
            return response

    # -- workers -------------------------------------------------------
    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            try:
                request = self._queue.get(timeout=0.2)
            except queue.Empty:
                continue
            if request is None:
                continue
            with request.lock:
                if request.abandoned:
                    continue
            self._execute(request)

    def _execute(self, request: _Request) -> None:
        tracer = request.tracer
        token = trace.activate(tracer, tracer.root) if tracer is not None else None
        try:
            self._execute_traced(request)
        finally:
            if token is not None:
                trace.deactivate(token)

    def _trace_dict(self, request: _Request) -> dict | None:
        """Finish and render the request's span tree, if it has one."""
        return request.tracer.render() if request.tracer is not None else None

    def _add(self, block, key, amount) -> None:
        """Count ``amount`` on the :data:`COUNTERS` slot (block, key)."""
        if amount:
            self._counters[block, key].inc(int(amount))

    def _record_decisions(self, result, method: str) -> None:
        """Count what the execution stages decided for one result (every
        executor and partials alike ship it in ``result.details``), in
        one hold of the registry lock so no scrape sees half of it."""
        details = result.details
        pruning = details.get("pruning")
        rollup = details.get("rollup")
        encoded = details.get("encoded_agg")
        add = self._add
        with self.metrics.lock:
            if pruning:
                add("pruning", "queries", 1)
                add("pruning", "queries_pruned", bool(pruning.get("morsels_pruned")))
                for key in (
                    "morsels_scanned", "morsels_pruned", "rows_pruned", "bytes_pruned"
                ):
                    add("pruning", key, pruning.get(key, 0))
            if rollup and rollup.get("rollup_used"):
                add("rollups", "routed", 1)
                for key in (
                    "rows_read", "base_rows_avoided", "bytes_read", "base_bytes_avoided"
                ):
                    add("rollups", key, rollup.get(key, 0))
            elif rollup:
                reason = str(rollup.get("reason", "unknown"))
                self._m_rollup_fallbacks.labels(reason=reason).inc()
            if encoded:
                code_domain = int(encoded.get("code_domain", 0))
                add("encoded_agg", "queries", 1)
                add("encoded_agg", "queries_code_domain", bool(code_domain))
                for mode, count in (
                    ("code-domain", code_domain),
                    ("decoded", int(encoded.get("decoded", 0))),
                ):
                    if count:  # a labelled series exists once counted
                        self._m_encoded_agg_aggregates.labels(mode=mode).inc(count)
            if method == "run_compiled":
                add("compile", "queries", 1)
                joins = (details.get("compiled") or {}).get("joins", ())
                add("compile", "joins", len(joins))
                add("compile", "groups_emitted", details.get("groups", 0))

    def _chooser_decision(self, bound) -> dict:
        """The engine chooser's prediction for ``bound`` (a
        ``{"declined": reason}`` stub when the plan cannot be
        modelled).  Runs parent-side (both executors) so worker
        processes never pay for it."""
        from repro.compile.chooser import ChooserError, choose

        with trace.span("chooser"):
            try:
                decision = choose(self.db, bound)
            except ChooserError as exc:
                trace.annotate(outcome="declined")
                self._add("chooser", "declined", 1)
                return {"declined": str(exc)}
            trace.annotate(
                outcome="decided",
                chosen=decision["chosen"],
                predicted_cycles=decision["predicted_cycles"][decision["chosen"]],
            )
        self._m_chooser_decisions.labels(chosen=decision["chosen"]).inc()
        return decision

    def explain(self, sql: str) -> dict:
        """Compile ``sql`` and report how it would run, without running
        it: the bound route (hand-wired template vs compiled kernel
        program), the program shape when compiled, and the engine
        chooser's predicted cycles per candidate route."""
        from repro.compile import CompileError
        from repro.compile.program import compiled_program

        bound = self.compile(sql)
        report: dict = {
            "workload": bound.workload,
            "method": bound.method,
            "route": "compiled" if bound.method == "run_compiled" else "template",
            "binding": str(bound),
        }
        if bound.plan is not None:
            try:
                report["program"] = compiled_program(bound.plan).describe()
            except CompileError as exc:
                report["program"] = None
                report["compile_declined"] = str(exc)
        report["chooser"] = self._chooser_decision(bound)
        return report

    def _execute_traced(self, request: _Request) -> None:
        tracing = request.tracer is not None
        if tracing:
            trace.record(
                "admission",
                request.submitted_at,
                self.clock.now(),
                queued_depth=request.queued_depth,
            )
        try:
            bound = self.compile(request.sql)
            engine = engine_by_name(request.engine_name)
            with trace.span(
                "execute",
                engine=request.engine_name,
                executor=self.config.executor,
            ):
                merged = bound.call_kwargs()
                merged.update(request.options)
                method, kwargs_items = normalized_call(
                    engine, bound.method, bound.args, merged
                )
                result = self._run(engine, method, kwargs_items)
                if "chooser" not in result.details:
                    result.details["chooser"] = self._chooser_decision(bound)
                if tracing:
                    trace.annotate(
                        cached=bool(result.details.get("cached")),
                        **self.profiler().span_attrs(engine, result),
                    )
            self._record_decisions(result, method)
        except Exception as exc:  # noqa: BLE001 - an escape would end this worker
            self._finish(
                request,
                skip_if_abandoned=True,
                status=STATUS_ERROR,
                error=str(exc),
                trace=self._trace_dict(request),
            )
            return
        with trace.span("serialize"):
            value = jsonable(result.value)
        self._finish(
            request,
            skip_if_abandoned=True,
            status=STATUS_OK,
            workload=bound.workload,
            method=bound.method,
            value=value,
            tuples=result.tuples,
            cached=bool(result.details.get("cached")),
            trace=self._trace_dict(request),
        )

    def stats_snapshot(self) -> dict:
        """Query outcomes plus, per subsystem, what the execution stages
        decided over the service's lifetime, all rendered from one
        snapshot of the metrics registry.  Never triggers generation --
        an unserved database reports only counters."""
        from repro.compile.program import compile_cache_stats

        families = self.metrics.snapshot()

        def labelled(family) -> dict:
            """Label value -> count of a one-label family."""
            series = families[family.name]["series"]
            return {key[0]: int(count) for key, count in sorted(series.items())}

        blocks: dict = {}
        for (block, key), (name, _) in COUNTERS.items():
            blocks.setdefault(block, {})[key] = int(families[name]["series"][()])
        statuses = dict.fromkeys(
            (STATUS_OK, STATUS_ERROR, STATUS_REJECTED, STATUS_TIMEOUT), 0
        )
        for (_, status), count in families[self._m_queries.name]["series"].items():
            statuses[status] += int(count)
        snapshot = {
            "submitted": sum(statuses.values()),
            "ok": statuses[STATUS_OK],
            "errors": statuses[STATUS_ERROR],
            "rejected": statuses[STATUS_REJECTED],
            "timeouts": statuses[STATUS_TIMEOUT],
            **blocks[None],
            "latency": self.stats.snapshot(),
        }
        plan_cache = self._plans.stats()
        snapshot["plan_cache_entries"] = plan_cache["entries"]
        snapshot["plan_cache_hits"] = plan_cache["hits"]
        snapshot["plan_cache"] = plan_cache
        snapshot["queue_depth"] = self.queue_depth()
        snapshot["workers"] = self.config.workers
        snapshot["executor"] = self.config.executor
        with self._db_lock:
            db = self._db
        storage: dict = {"database_loaded": db is not None}
        if db is not None:
            tables = [db.table(name) for name in db.table_names]
            storage.update(
                logical_bytes=db.nbytes,
                stored_bytes=db.encoded_nbytes,
                compression_ratio=round(db.nbytes / db.encoded_nbytes, 3)
                if db.encoded_nbytes
                else 1.0,
                encoded_columns=sum(
                    table.encoding(column) is not None
                    for table in tables
                    for column in table.column_names
                ),
            )
        snapshot["storage"] = storage
        snapshot["pruning"] = blocks["pruning"]
        rollups, fallbacks = blocks["rollups"], labelled(self._m_rollup_fallbacks)
        snapshot["rollups"] = {
            "tables": sorted(getattr(db, "rollup_names", ())) if db else [],
            "queries": rollups["routed"] + sum(fallbacks.values()),
            "routed": rollups["routed"],
            "fallbacks": sum(fallbacks.values()),
            **rollups,
            "fallback_reasons": fallbacks,
        }
        modes = labelled(self._m_encoded_agg_aggregates)
        snapshot["encoded_agg"] = {
            **blocks["encoded_agg"],
            "aggregates_code_domain": modes.get("code-domain", 0),
            "aggregates_decoded": modes.get("decoded", 0),
        }
        snapshot["compile"] = {"cache": compile_cache_stats(), **blocks["compile"]}
        chosen = labelled(self._m_chooser_decisions)
        snapshot["chooser"] = {
            "decisions": sum(chosen.values()),
            **blocks["chooser"],
            "chosen": chosen,
        }
        with self._pool_lock:
            if self._pool is not None:
                snapshot["process_pool"] = {
                    "n_workers": self._pool.n_workers,
                    "queries_run": self._pool.queries_run,
                }
        return snapshot

    # -- observability -------------------------------------------------
    def _sync_mirrored_metrics(self) -> None:
        """Refresh metrics that mirror state owned elsewhere (caches,
        queue, pool) at scrape time."""
        for cache in (*memo.SHARED.values(), self._plans):
            stats = cache.stats()
            for kind, counter in self._m_caches.items():
                counter.labels(cache=cache.name).sync(stats[kind])
            self._m_cache_entries.labels(cache=cache.name).set(stats["entries"])
        self._m_queue_depth.set(self.queue_depth())
        self._m_workers.set(len(self._workers))
        with self._pool_lock:
            if self._pool is not None:
                self._m_pool_queries.sync(self._pool.queries_run)
        with self._db_lock:
            db = self._db
        self._m_rollup_tables.set(len(getattr(db, "rollup_names", ())) if db else 0)

    def metrics_snapshot(self) -> dict:
        """This service's metrics merged with every pool worker
        process's registry snapshot (fetched over the result channel)."""
        self._sync_mirrored_metrics()
        worker_snapshots: list[dict] = []
        with self._pool_lock:
            pool = self._pool
        if pool is not None:
            self._m_pool_alive.set(
                sum(1 for process in pool._processes if process.is_alive())
            )
            worker_snapshots = pool.metrics_snapshots()
        else:
            self._m_pool_alive.set(0)
        return merge_snapshots([self.metrics.snapshot(), *worker_snapshots])

    def metrics_text(self) -> str:
        """Prometheus text exposition of :meth:`metrics_snapshot`."""
        return render_snapshot(self.metrics_snapshot())

    def slowlog_snapshot(self) -> list[dict]:
        """The N slowest queries (slowest first) with their traces."""
        return self.slowlog.snapshot()
