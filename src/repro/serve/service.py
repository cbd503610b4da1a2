"""Concurrent query service: admission control + worker pool.

The service owns one generated database and one engine instance per
name; requests pick their engine (default configurable).  Admission is
a bounded queue -- a full queue rejects immediately with
``status="rejected"`` rather than building unbounded backlog -- and
every admitted request carries a deadline; a request that misses it
returns ``status="timeout"`` and is marked abandoned so a worker that
later pops it drops it instead of executing dead work.

Compiled plans are cached per normalized SQL text (the parse/plan/lower
pipeline is pure), and the engine executions themselves hit the
process-wide :mod:`repro.core.execcache`, so repeated statements -- the
common case for a profiling service -- cost one dictionary lookup plus
a result snapshot.  Responses carry ``cached`` so callers can see which
tier served them.
"""

from __future__ import annotations

import copy
import queue
import threading
from dataclasses import dataclass, field

from repro import settings
from repro.core.parallel import WorkerPool, normalized_call, run_call
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
        if self.plan_cache_size < 1:
            raise ValueError("plan_cache_size must be >= 1")
        if self.slowlog_capacity < 1:
            raise ValueError("slowlog_capacity must be >= 1")


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


class ServiceStats:
    """Counters and latency percentiles, all under one lock."""

    KEEP_LATENCIES = 4096

    def __init__(self):
        self._lock = threading.Lock()
        self.submitted = 0
        self.ok = 0
        self.errors = 0
        self.rejected = 0
        self.timeouts = 0
        self.cache_hits = 0
        self._latencies_ms: list[float] = []

    def record(self, status: str, latency_ms: float | None, cached: bool) -> None:
        with self._lock:
            self.submitted += 1
            if status == STATUS_OK:
                self.ok += 1
            elif status == STATUS_REJECTED:
                self.rejected += 1
            elif status == STATUS_TIMEOUT:
                self.timeouts += 1
            else:
                self.errors += 1
            if cached:
                self.cache_hits += 1
            if latency_ms is not None:
                self._latencies_ms.append(latency_ms)
                if len(self._latencies_ms) > self.KEEP_LATENCIES:
                    del self._latencies_ms[: -self.KEEP_LATENCIES]

    def snapshot(self) -> dict:
        with self._lock:
            latencies = sorted(self._latencies_ms)
            summary = {}
            if latencies:
                def pct(p: float) -> float:
                    index = min(len(latencies) - 1, int(p * len(latencies)))
                    return round(latencies[index], 3)

                summary = {
                    "p50_ms": pct(0.50),
                    "p90_ms": pct(0.90),
                    "p99_ms": pct(0.99),
                    "max_ms": round(latencies[-1], 3),
                }
            return {
                "submitted": self.submitted,
                "ok": self.ok,
                "errors": self.errors,
                "rejected": self.rejected,
                "timeouts": self.timeouts,
                "cache_hits": self.cache_hits,
                "latency": summary,
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
        self._engines: dict[str, object] = {}
        self._engines_lock = threading.Lock()
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
        #: What the execution stages decided, summed over the service's
        #: lifetime: one block per ``stats_snapshot()`` key, filled by
        #: :meth:`_record_decisions` (and the chooser) under one lock
        #: and mirrored into counters at scrape time.  Sub-dicts count
        #: per metric label value.
        self._totals_lock = threading.Lock()
        self._totals = {
            "pruning": dict.fromkeys(
                ("queries", "queries_pruned", "morsels_scanned",
                 "morsels_pruned", "rows_pruned", "bytes_pruned"), 0
            ),
            "rollups": {
                **dict.fromkeys(
                    ("queries", "routed", "fallbacks", "rows_read",
                     "base_rows_avoided", "bytes_read", "base_bytes_avoided"), 0
                ),
                "fallback_reasons": {},
            },
            "encoded_agg": dict.fromkeys(
                ("queries", "queries_code_domain", "aggregates_code_domain",
                 "aggregates_decoded"), 0
            ),
            "compile": dict.fromkeys(("queries", "joins", "groups_emitted"), 0),
            "chooser": {"decisions": 0, "declined": 0, "chosen": {}},
        }
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
        self._m_plan_hits = m.counter(
            "repro_plan_cache_hits_total", "Plan-cache hits"
        )
        self._m_plan_misses = m.counter(
            "repro_plan_cache_misses_total", "Plan-cache misses"
        )
        self._m_plan_evictions = m.counter(
            "repro_plan_cache_evictions_total", "Plan-cache evictions"
        )
        self._m_plan_entries = m.gauge(
            "repro_plan_cache_entries", "Compiled plans currently cached"
        )
        self._m_exec_hits = m.counter(
            "repro_execcache_hits_total", "Execution-cache hits"
        )
        self._m_exec_misses = m.counter(
            "repro_execcache_misses_total", "Execution-cache misses"
        )
        self._m_exec_entries = m.gauge(
            "repro_execcache_entries", "Execution-cache entries"
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
        self._m_compile_hits = m.counter(
            "repro_compile_cache_hits_total", "Compiled-program cache hits"
        )
        self._m_compile_misses = m.counter(
            "repro_compile_cache_misses_total",
            "Compiled-program cache misses (fresh compilations)",
        )
        self._m_compile_entries = m.gauge(
            "repro_compile_cache_entries", "Compiled programs currently cached"
        )
        #: Counters that mirror one decision total each:
        #: (``_totals`` block, key) -> counter.
        self._m_decisions = {
            ("pruning", "queries_pruned"): m.counter(
                "repro_prune_queries_total",
                "Queries that skipped at least one morsel via zone maps",
            ),
            ("pruning", "morsels_scanned"): m.counter(
                "repro_prune_morsels_scanned_total",
                "Zone-map chunks scanned by prune-eligible queries",
            ),
            ("pruning", "morsels_pruned"): m.counter(
                "repro_prune_morsels_pruned_total",
                "Zone-map chunks skipped without scanning",
            ),
            ("pruning", "rows_pruned"): m.counter(
                "repro_prune_rows_pruned_total", "Rows skipped via zone maps"
            ),
            ("rollups", "routed"): m.counter(
                "repro_rollup_routed_total",
                "Queries answered from a materialized rollup",
            ),
            ("rollups", "rows_read"): m.counter(
                "repro_rollup_rows_read_total",
                "Pre-aggregated rollup rows read by routed queries",
            ),
            ("rollups", "base_rows_avoided"): m.counter(
                "repro_rollup_base_rows_avoided_total",
                "Base-table rows routed queries did not scan",
            ),
            ("encoded_agg", "queries_code_domain"): m.counter(
                "repro_encoded_agg_queries_total",
                "Queries that aggregated at least one measure in the code domain",
            ),
            ("compile", "queries"): m.counter(
                "repro_compile_queries_total",
                "Queries executed through a compiled kernel program",
            ),
            ("chooser", "declined"): m.counter(
                "repro_chooser_declined_total",
                "Queries the engine chooser could not model",
            ),
        }
        # Labelled mirrors: one series per label value seen.
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

    def engine(self, name: str):
        with self._engines_lock:
            if name not in self._engines:
                from repro.engines import engine_by_name

                self._engines[name] = engine_by_name(name)
            return self._engines[name]

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
                self.engine(engine_name), method, tuple(kwargs_items), finish=False
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
        self.stats.record(status, latency_ms if ok else None, cached)
        self._m_queries.labels(engine=engine_name, status=status).inc()
        if ok:
            self._m_latency.labels(engine=engine_name).observe(latency_ms / 1e3)

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

    def _record_decisions(self, result, method: str) -> None:
        """Fold what the execution stages decided for one result (every
        executor and partials alike ship it in ``result.details``) into
        the service totals."""
        details = result.details
        pruning = details.get("pruning")
        rollup = details.get("rollup")
        encoded = details.get("encoded_agg")
        with self._totals_lock:
            if pruning:
                totals = self._totals["pruning"]
                totals["queries"] += 1
                totals["queries_pruned"] += bool(pruning.get("morsels_pruned"))
                for key in (
                    "morsels_scanned", "morsels_pruned", "rows_pruned", "bytes_pruned"
                ):
                    totals[key] += int(pruning.get(key, 0))
            if rollup:
                totals = self._totals["rollups"]
                totals["queries"] += 1
                if rollup.get("rollup_used"):
                    totals["routed"] += 1
                    for key in (
                        "rows_read", "base_rows_avoided", "bytes_read",
                        "base_bytes_avoided",
                    ):
                        totals[key] += int(rollup.get(key, 0))
                else:
                    totals["fallbacks"] += 1
                    reasons = totals["fallback_reasons"]
                    reason = str(rollup.get("reason", "unknown"))
                    reasons[reason] = reasons.get(reason, 0) + 1
            if encoded:
                totals = self._totals["encoded_agg"]
                code_domain = int(encoded.get("code_domain", 0))
                totals["queries"] += 1
                totals["queries_code_domain"] += bool(code_domain)
                totals["aggregates_code_domain"] += code_domain
                totals["aggregates_decoded"] += int(encoded.get("decoded", 0))
            if method == "run_compiled":
                totals = self._totals["compile"]
                totals["queries"] += 1
                totals["joins"] += len(
                    (details.get("compiled") or {}).get("joins", ())
                )
                totals["groups_emitted"] += int(details.get("groups", 0))

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
                with self._totals_lock:
                    self._totals["chooser"]["declined"] += 1
                return {"declined": str(exc)}
            trace.annotate(
                outcome="decided",
                chosen=decision["chosen"],
                predicted_cycles=decision["predicted_cycles"][decision["chosen"]],
            )
        with self._totals_lock:
            totals = self._totals["chooser"]
            totals["decisions"] += 1
            chosen = decision["chosen"]
            totals["chosen"][chosen] = totals["chosen"].get(chosen, 0) + 1
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
        if bound.plan is not None and settings.enabled("compile"):
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
            engine = self.engine(request.engine_name)
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
        except (ValueError, TypeError, RuntimeError) as exc:  # SqlError included
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

    def _decision_totals(self) -> dict:
        with self._totals_lock:
            return copy.deepcopy(self._totals)

    def stats_snapshot(self) -> dict:
        """Service counters plus, per subsystem, its toggle and what
        the execution stages decided over the service's lifetime.
        Never triggers generation -- an unserved database reports only
        toggles and counters."""
        from repro.compile.program import compile_cache_stats

        snapshot = self.stats.snapshot()
        plan_cache = self._plans.stats()
        snapshot["plan_cache_entries"] = plan_cache["entries"]
        snapshot["plan_cache_hits"] = plan_cache["hits"]
        snapshot["plan_cache"] = plan_cache
        snapshot["queue_depth"] = self.queue_depth()
        snapshot["workers"] = self.config.workers
        snapshot["executor"] = self.config.executor
        with self._db_lock:
            db = self._db
        storage: dict = {
            "encoding_enabled": settings.enabled("encoding"),
            "database_loaded": db is not None,
        }
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
        totals = self._decision_totals()
        snapshot["pruning"] = {
            "enabled": settings.enabled("pruning"), **totals["pruning"]
        }
        snapshot["rollups"] = {
            "enabled": settings.enabled("rollups"),
            "tables": sorted(getattr(db, "rollup_names", ())) if db else [],
            **totals["rollups"],
        }
        snapshot["encoded_agg"] = {
            "enabled": settings.enabled("encoded_agg"), **totals["encoded_agg"]
        }
        snapshot["compile"] = {
            "enabled": settings.enabled("compile"),
            "cache": compile_cache_stats(),
            **totals["compile"],
        }
        snapshot["chooser"] = totals["chooser"]
        with self._pool_lock:
            if self._pool is not None:
                snapshot["process_pool"] = {
                    "n_workers": self._pool.n_workers,
                    "queries_run": self._pool.queries_run,
                }
        return snapshot

    # -- observability -------------------------------------------------
    def _sync_mirrored_metrics(self) -> None:
        """Refresh metrics that mirror state owned elsewhere (decision
        totals, plan cache, execcache, queue, pool) at scrape time."""
        from repro.compile.program import compile_cache_stats
        from repro.core.execcache import EXECUTION_CACHE

        totals = self._decision_totals()
        for (block, key), counter in self._m_decisions.items():
            counter.sync(totals[block][key])
        encoded = totals["encoded_agg"]
        modes = {
            "code-domain": encoded["aggregates_code_domain"],
            "decoded": encoded["aggregates_decoded"],
        }
        for counter, label, counts in (
            (self._m_rollup_fallbacks, "reason",
             totals["rollups"]["fallback_reasons"]),
            (self._m_encoded_agg_aggregates, "mode", modes),
            (self._m_chooser_decisions, "chosen", totals["chooser"]["chosen"]),
        ):
            for value, count in counts.items():
                if count:  # a series exists once its label value was seen
                    counter.labels(**{label: value}).sync(count)
        compile_cache = compile_cache_stats()
        self._m_compile_hits.sync(compile_cache["hits"])
        self._m_compile_misses.sync(compile_cache["misses"])
        self._m_compile_entries.set(compile_cache["entries"])
        plan_cache = self._plans.stats()
        self._m_plan_hits.sync(plan_cache["hits"])
        self._m_plan_misses.sync(plan_cache["misses"])
        self._m_plan_evictions.sync(plan_cache["evictions"])
        self._m_plan_entries.set(plan_cache["entries"])
        self._m_exec_hits.sync(EXECUTION_CACHE.hits)
        self._m_exec_misses.sync(EXECUTION_CACHE.misses)
        self._m_exec_entries.set(len(EXECUTION_CACHE))
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
