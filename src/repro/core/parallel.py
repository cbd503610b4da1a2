"""Morsel-driven multi-process query execution.

The thread-pooled service (:mod:`repro.serve`) is throughput-bound by
the GIL: engine executions are numpy-heavy but still spend most of
their time holding the interpreter lock, so adding service threads
buys admission concurrency, not CPU parallelism.  This module executes
*one query across many processes* the way Leis et al. (SIGMOD'14)
schedule analytical queries across cores:

- the input table is pre-partitioned into one contiguous row range per
  worker (all ranges aligned to
  :data:`repro.engines.morsel.MORSEL_ALIGN`);
- each worker claims fixed-size **morsels** from its own range and,
  when it runs dry, **steals** the upper half of the largest remaining
  range -- so data skew or a slow worker never idles the pool;
- per-morsel partial results merge exactly (worker-locally first, then
  across workers) into a final :class:`~repro.engines.base.QueryResult`
  that is **bit-identical** -- values, tuple counts, work profiles,
  modeled cycles -- to a single-process run (see
  :mod:`repro.engines.morsel` for the recording contract that makes
  this true).

The execution driver, :func:`run_call`, lives here as well: the
service's threads, this pool and a shard node all run one normalized
call through the same route -> prune -> dispatch -> synthesize ->
finish stages; :meth:`WorkerPool.dispatch` is its morsel-parallel
dispatcher, ``finish=False`` the shard node's stop-as-partial.

Workers are persistent spawn-mode processes.  The base data crosses
the process boundary exactly once, through one
:mod:`repro.storage.shm` segment exported at pool construction;
workers attach zero-copy views and never run dbgen (a regression test
pins this).  Only small objects travel the queues: task descriptors
out, merged per-worker partials back.

Crash behaviour: a dead worker surfaces as :class:`WorkerCrashed` from
the in-flight call; :meth:`WorkerPool.close` (also registered via
``atexit`` and run by the context manager on Ctrl-C) terminates
stragglers and unlinks the shared segment.
"""

from __future__ import annotations

import atexit
import inspect
import multiprocessing
import os
import threading
import time
import traceback

from repro.core import pruning
from repro.engines.base import TPCH_RUNNERS
from repro.engines.morsel import MORSEL_ALIGN, merge_worker_partials, morsel_ranges
from repro.obs import metrics as obs_metrics
from repro.obs import trace

#: Rows one claim hands a worker.  Aligned, and large enough that the
#: per-morsel numpy dispatch overhead stays negligible.
DEFAULT_MORSEL_ROWS = 1 << 16


class WorkerCrashed(RuntimeError):
    """A pool worker died or failed while executing a task."""


# ----------------------------------------------------------------------
# Task normalisation
# ----------------------------------------------------------------------
def normalized_call(engine, method: str, args: tuple, kwargs: dict):
    """Resolve one public engine call to ``(method, kwargs_items)``.

    ``run_tpch`` dispatches to the per-query runner (matching
    :meth:`Engine.run_tpch`); all positional arguments become named so
    the items can parameterise morsel runs, the merge finisher, and
    cache keys alike.
    """
    if method == "run_tpch":
        signature = inspect.signature(type(engine).run_tpch)
        bound = signature.bind(engine, None, *args, **kwargs)
        bound.apply_defaults()
        query_id = bound.arguments["query_id"]
        predicated = bound.arguments["predicated"]
        if query_id not in TPCH_RUNNERS:
            raise ValueError(f"unsupported TPC-H query {query_id!r}")
        if predicated and query_id != "Q6":
            raise ValueError("predication is studied on Q6 only (Section 7)")
        method = TPCH_RUNNERS[query_id]
        args, kwargs = (), ({"predicated": True} if predicated else {})
    signature = inspect.signature(getattr(type(engine), method))
    if "row_range" not in signature.parameters:
        raise ValueError(f"{type(engine).__name__}.{method} has no morsel support")
    bound = signature.bind(engine, None, *args, **kwargs)
    bound.apply_defaults()
    items = tuple(
        (name, value)
        for name, value in bound.arguments.items()
        if name not in ("self", "db", "row_range")
    )
    return method, items


# ----------------------------------------------------------------------
# The execution driver
# ----------------------------------------------------------------------
def run_call(
    db, engine, method: str, kwargs_items: tuple, *, pool=None, finish=True, executor
):
    """Execute one normalized engine call (see :func:`normalized_call`):
    route -> prune -> dispatch -> synthesize -> finish, on every
    executor.

    ``pool`` picks the dispatcher: None scans on the calling thread, a
    :class:`WorkerPool` fans morsels out.  ``finish=False`` stops before
    the finisher and returns one still-mergeable partial for a
    scatter-gather coordinator.  ``executor`` only labels the
    ``route``/``prune`` spans (``thread``/``process``/``shard``).
    The result is bit-identical to the direct engine call, except that
    a routed result reports the rollup rows it read.
    """
    from repro.rollup import router

    kwargs = dict(kwargs_items)
    # Routing stays on the calling thread: a routed query reads the
    # (tiny) pre-aggregated table, cheaper than one dispatch.
    result, decision = router.attempt(db, engine, method, kwargs, executor, finish)
    if result is None:
        plan = pruning.plan_for(db, method, kwargs, executor)
        if pool is None and plan is None and finish:
            # The one special case: a whole-table run on this thread is
            # the plain engine call, which is what the execution cache
            # memoizes (row_range partials are never cached).
            row_range = None
            if trace.active():
                row_range = (0, engine.partition_rows(db, method, kwargs))
            with trace.span(
                "morsel",
                worker=threading.current_thread().name,
                row_range=row_range,
                stolen=False,
            ):
                result = getattr(engine, method)(db, **kwargs)
        else:
            if plan is not None:
                segments = plan.kept_segments
            else:
                segments = ((0, engine.partition_rows(db, method, kwargs)),)
            if pool is None:
                partials = pruning.scan_segments(engine, db, method, kwargs, segments)
            else:
                partials = pool.dispatch(engine, method, kwargs_items, segments)
            if plan is not None:
                partials.extend(
                    pruning.pruned_partials(engine, db, method, kwargs, plan)
                )
            if finish:
                result = engine.merge_morsels(db, method, kwargs_items, partials)
            else:
                result = merge_worker_partials(partials)
            if plan is not None:
                result.details["pruning"] = plan.summary(db, method)
    if decision is not None:
        result.details["rollup"] = decision
    return result


# ----------------------------------------------------------------------
# Work-stealing ledger
# ----------------------------------------------------------------------
class MorselLedger:
    """Shared per-worker ``[next, end)`` row ranges with stealing.

    One flat ``multiprocessing.Array('q', 2 * n_workers)`` under its
    built-in lock.  A worker first claims morsels from its own range;
    once dry it steals the **upper half** of the largest remaining
    range (victim keeps the cache-warm lower half it is scanning),
    re-seats its own range there and claims from it.  Split points stay
    :data:`~repro.engines.morsel.MORSEL_ALIGN`-aligned so stolen
    morsels keep the exact-merge guarantees.
    """

    def __init__(self, ctx, n_workers: int):
        self.n_workers = n_workers
        self._ranges = ctx.Array("q", 2 * n_workers)

    def assign(self, ranges) -> None:
        """Install one query's per-worker ranges (parent side)."""
        ranges = list(ranges)
        with self._ranges.get_lock():
            for worker_id in range(self.n_workers):
                if worker_id < len(ranges):
                    lo, hi = ranges[worker_id]
                else:
                    lo = hi = 0
                self._ranges[2 * worker_id] = lo
                self._ranges[2 * worker_id + 1] = hi

    def claim(self, worker_id: int, morsel_rows: int):
        """Next morsel for ``worker_id``: ``(lo, hi, stolen)`` or None."""
        with self._ranges.get_lock():
            lo = self._ranges[2 * worker_id]
            end = self._ranges[2 * worker_id + 1]
            if lo < end:
                hi = min(lo + morsel_rows, end)
                self._ranges[2 * worker_id] = hi
                return lo, hi, False
            victim, best = -1, 0
            for other in range(self.n_workers):
                if other == worker_id:
                    continue
                remaining = self._ranges[2 * other + 1] - self._ranges[2 * other]
                if remaining > best:
                    victim, best = other, remaining
            if victim < 0:
                return None
            victim_lo = self._ranges[2 * victim]
            victim_end = self._ranges[2 * victim + 1]
            if best <= morsel_rows:
                # Too little to split: take the victim's tail outright.
                self._ranges[2 * victim] = victim_end
                return victim_lo, victim_end, True
            mid = victim_lo + (best // 2 // MORSEL_ALIGN) * MORSEL_ALIGN
            if mid <= victim_lo:
                mid = victim_lo + MORSEL_ALIGN
            self._ranges[2 * victim + 1] = mid
            self._ranges[2 * worker_id] = mid
            self._ranges[2 * worker_id + 1] = victim_end
            hi = min(mid + morsel_rows, victim_end)
            self._ranges[2 * worker_id] = hi
            return mid, hi, True

    def remaining(self) -> int:
        with self._ranges.get_lock():
            return sum(
                max(0, self._ranges[2 * i + 1] - self._ranges[2 * i])
                for i in range(self.n_workers)
            )


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _resolve_engine(spec: tuple, cache: dict):
    if spec not in cache:
        import importlib

        module_name, qualname = spec
        obj = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        cache[spec] = obj()
    return cache[spec]


def _worker_metrics(worker_id: int):
    """This worker process's metric handles (module registry is fresh
    per spawned process, so these counters are per-worker by nature)."""
    label = str(worker_id)
    registry = obs_metrics.REGISTRY
    return {
        "morsels": registry.counter(
            "repro_worker_morsels_total", "Morsels executed", ("worker",)
        ).labels(worker=label),
        "steals": registry.counter(
            "repro_worker_steals_total", "Morsels obtained by stealing", ("worker",)
        ).labels(worker=label),
        "rows": registry.counter(
            "repro_worker_rows_total", "Rows scanned in morsels", ("worker",)
        ).labels(worker=label),
        "seconds": registry.histogram(
            "repro_worker_morsel_seconds", "Per-morsel execution time", ("worker",)
        ).labels(worker=label),
    }


def _worker_main(worker_id, manifest, ledger, inbox, results, morsel_rows):
    """Persistent worker loop: attach once, then claim/run/merge/reply."""
    from repro.storage import shm

    attached = shm.attach_database(manifest)
    db = attached.database
    engines: dict = {}
    morsels_run = 0
    steals = 0
    metric = _worker_metrics(worker_id)
    try:
        while True:
            message = inbox.get()
            if message is None or message[0] == "stop":
                break
            kind, task_id = message[0], message[1]
            try:
                if kind == "ping":
                    results.put(("done", task_id, worker_id, "pong"))
                elif kind == "stats":
                    from repro.tpch import dbgen

                    results.put(
                        (
                            "done",
                            task_id,
                            worker_id,
                            {
                                "pid": os.getpid(),
                                "morsels": morsels_run,
                                "steals": steals,
                                "dbgen_runs": dbgen.GENERATION_COUNT,
                            },
                        )
                    )
                elif kind == "metrics":
                    results.put(
                        ("done", task_id, worker_id, obs_metrics.REGISTRY.snapshot())
                    )
                elif kind == "run":
                    _, _, engine_spec, method, kwargs_items, segments = message
                    engine = _resolve_engine(engine_spec, engines)
                    runner = getattr(engine, method)
                    kwargs = dict(kwargs_items)
                    # The ledger hands out ranges over the *compacted*
                    # space of the rows to scan; translate each claim
                    # back to actual table rows (a claim spanning a
                    # segment boundary splits).
                    offsets = pruning.kept_offsets(segments)
                    partials = []
                    records = []
                    while True:
                        claim = ledger.claim(worker_id, morsel_rows)
                        if claim is None:
                            break
                        lo, hi, stolen = claim
                        pieces = pruning.translate_claim(segments, offsets, lo, hi)
                        for piece_lo, piece_hi in pieces:
                            t0 = time.perf_counter()
                            partials.append(
                                runner(db, row_range=(piece_lo, piece_hi), **kwargs)
                            )
                            t1 = time.perf_counter()
                            records.append(
                                (worker_id, piece_lo, piece_hi, bool(stolen), t0, t1)
                            )
                            morsels_run += 1
                            metric["morsels"].inc()
                            metric["rows"].inc(piece_hi - piece_lo)
                            metric["seconds"].observe(t1 - t0)
                        steals += stolen
                        if stolen:
                            metric["steals"].inc()
                    payload = merge_worker_partials(partials) if partials else None
                    results.put(("done", task_id, worker_id, (payload, records)))
                else:
                    results.put(("error", task_id, worker_id, f"unknown task {kind!r}"))
            except BaseException:
                results.put(("error", task_id, worker_id, traceback.format_exc()))
    finally:
        attached.close()


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
class WorkerPool:
    """Persistent multi-process morsel executor over one database.

    The database is exported into shared memory once, workers are
    spawned once, and every :meth:`dispatch` fans one engine call out
    as morsels.  Thread-safe: concurrent callers (the query service's
    admission threads) serialise on an internal lock, so the pool runs
    one query at a time with all workers on it -- intra-query
    parallelism, which is what makes a CPU-bound query mix scale.
    """

    def __init__(
        self,
        db,
        n_workers: int | None = None,
        morsel_rows: int = DEFAULT_MORSEL_ROWS,
        task_timeout_s: float = 120.0,
    ):
        from repro.storage import shm

        if n_workers is None:
            n_workers = max(2, min(8, os.cpu_count() or 2))
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if morsel_rows < MORSEL_ALIGN or morsel_rows % MORSEL_ALIGN:
            raise ValueError(f"morsel_rows must be a positive multiple of {MORSEL_ALIGN}")
        self.n_workers = n_workers
        self.morsel_rows = morsel_rows
        self.task_timeout_s = task_timeout_s
        self.db = db
        self._lock = threading.Lock()
        self._task_counter = 0
        self._closed = False
        self.queries_run = 0

        ctx = multiprocessing.get_context("spawn")
        self._exported = shm.export_database(db)
        # The pool adopts exit-time ownership of the segment: close()
        # (registered below) stops workers FIRST and unlinks LAST, so
        # there is exactly one atexit hook with an explicit order
        # instead of two independent ones racing at interpreter exit.
        self._exported.disown_atexit()
        self._ledger = MorselLedger(ctx, n_workers)
        self._results = ctx.Queue()
        self._inboxes = [ctx.Queue() for _ in range(n_workers)]
        self._processes = []
        try:
            for worker_id in range(n_workers):
                process = ctx.Process(
                    target=_worker_main,
                    args=(
                        worker_id,
                        self._exported.manifest,
                        self._ledger,
                        self._inboxes[worker_id],
                        self._results,
                        morsel_rows,
                    ),
                    name=f"morsel-worker-{worker_id}",
                    daemon=True,
                )
                process.start()
                self._processes.append(process)
        except BaseException:
            self.close()
            raise
        atexit.register(self.close)

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Stop workers and unlink the shared segment.  Idempotent and
        safe from ``finally``/``atexit``/signal paths."""
        if self._closed:
            return
        self._closed = True
        for inbox in self._inboxes:
            try:
                inbox.put_nowait(("stop",))
            except Exception:
                pass
        for process in self._processes:
            process.join(timeout=2.0)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
        for queue_ in (*self._inboxes, self._results):
            queue_.cancel_join_thread()
            queue_.close()
        self._exported.unlink()
        atexit.unregister(self.close)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- dispatch ------------------------------------------------------
    def _broadcast_collect(self, build_message):
        """Send one task to every worker; return per-worker payloads."""
        self._task_counter += 1
        task_id = self._task_counter
        for inbox in self._inboxes:
            inbox.put(build_message(task_id))
        payloads: dict[int, object] = {}
        import queue as queue_module
        import time

        deadline = time.monotonic() + self.task_timeout_s
        while len(payloads) < self.n_workers:
            try:
                status, got_task, worker_id, payload = self._results.get(timeout=0.25)
            except queue_module.Empty:
                dead = [p.name for p in self._processes if not p.is_alive()]
                if dead:
                    raise WorkerCrashed(f"worker(s) died: {', '.join(dead)}")
                if time.monotonic() > deadline:
                    raise WorkerCrashed(
                        f"task timed out after {self.task_timeout_s}s"
                    )
                continue
            if got_task != task_id:
                continue  # stale reply from an abandoned task
            if status == "error":
                raise WorkerCrashed(f"worker {worker_id} failed:\n{payload}")
            payloads[worker_id] = payload
        return payloads

    def dispatch(self, engine, method: str, kwargs_items: tuple, segments) -> list:
        """Pool dispatch stage of :func:`run_call`: fan the row ranges
        ``segments`` out as morsels and return one pre-merged partial
        per worker that ran any.  Worker morsel timings are grafted
        into the active trace as completed ``morsel`` spans."""
        if self._closed:
            raise RuntimeError("pool is closed")
        engine_cls = type(engine)
        engine_spec = (engine_cls.__module__, engine_cls.__qualname__)
        segments = tuple(segments)
        n_rows = sum(hi - lo for lo, hi in segments)
        with self._lock:
            payloads = {}
            if n_rows:
                self._ledger.assign(morsel_ranges(n_rows, self.n_workers))
                payloads = self._broadcast_collect(
                    lambda task_id: (
                        "run", task_id, engine_spec, method, kwargs_items, segments,
                    )
                )
            self.queries_run += 1
        partials = []
        records = []
        for partial, worker_records in payloads.values():
            if partial is not None:
                partials.append(partial)
            records.extend(worker_records)
        if n_rows and not partials:
            raise WorkerCrashed("no worker produced a partial result")
        if trace.active():
            # Ordered by row range so the tree is deterministic.
            for worker_id, lo, hi, stolen, t0, t1 in sorted(
                records, key=lambda r: (r[1], r[2])
            ):
                trace.record(
                    "morsel",
                    t0,
                    t1,
                    worker=worker_id,
                    row_range=(lo, hi),
                    stolen=stolen,
                )
        return partials

    def run_query(self, engine, method: str, *args, **kwargs):
        """Execute ``engine.<method>(db, *args, **kwargs)`` morsel-parallel.

        Returns a QueryResult bit-identical to the single-process call.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        method, kwargs_items = normalized_call(engine, method, args, kwargs)
        return run_call(
            self.db, engine, method, kwargs_items, pool=self, executor="process"
        )

    def ping(self) -> bool:
        with self._lock:
            payloads = self._broadcast_collect(lambda task_id: ("ping", task_id))
        return all(payload == "pong" for payload in payloads.values())

    def metrics_snapshots(self) -> list[dict]:
        """One metrics-registry snapshot per worker process, for
        :func:`repro.obs.merge_snapshots` at scrape time."""
        with self._lock:
            payloads = self._broadcast_collect(lambda task_id: ("metrics", task_id))
        return [payloads[worker_id] for worker_id in sorted(payloads)]

    def stats(self) -> dict:
        """Per-worker counters (morsels, steals, dbgen runs, pids)."""
        with self._lock:
            payloads = self._broadcast_collect(lambda task_id: ("stats", task_id))
        workers = [payloads[worker_id] for worker_id in sorted(payloads)]
        return {
            "n_workers": self.n_workers,
            "morsel_rows": self.morsel_rows,
            "queries_run": self.queries_run,
            "workers": workers,
            "total_morsels": sum(worker["morsels"] for worker in workers),
            "total_steals": sum(worker["steals"] for worker in workers),
            "worker_dbgen_runs": sum(worker["dbgen_runs"] for worker in workers),
        }
