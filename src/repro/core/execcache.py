"""In-process memoization of engine executions.

The profiling drivers -- profiler, multicore model, what-if analyzer,
figure registry, test fixtures -- repeatedly execute *identical* engine
runs: the same engine class, the same query, the same database.  Each
run costs real numpy execution (seconds at benchmark scale factors).
This cache memoizes ``(engine class, method, database identity,
arguments) -> QueryResult`` so each distinct execution happens once per
process.

Correctness guards:

- **Database identity** comes from :attr:`repro.storage.Database.identity`
  -- the dbgen cache key when the content is known, a per-object uid
  otherwise.  Mutating a database (``add_table``) drops its content key,
  so derived databases never alias cached runs.
- **Snapshot on both put and get.**  Callers receive a private
  :class:`~repro.engines.base.QueryResult` copy (work profile and
  operator profiles deep-copied via ``scaled(1.0)``), so callers that
  mutate their result cannot poison the cache and cached entries cannot
  be mutated through earlier handles.
- **Only first-party engines participate.**  Engine subclasses defined
  outside ``repro.*`` (test doubles that override behaviour while
  inheriting ``name``) bypass the cache entirely.
- Served copies carry ``details["cached"] = True`` so downstream
  reports can mark memoized measurements (see
  :class:`repro.core.report.ProfileReport`).

Disable with ``REPRO_EXEC_CACHE=0``.
"""

from __future__ import annotations

import inspect
import threading
from collections import OrderedDict
from functools import wraps

from repro import settings
from repro.obs import trace

#: Engine methods that are memoized (the complete execution surface).
#: :func:`repro.engines.base._memoize_run_methods` wraps each where it
#: is defined: once on the base Engine for the shared ones, per
#: subclass for overrides.
CACHED_METHODS = (
    "run_projection",
    "run_selection",
    "run_join",
    "run_groupby",
    "run_q1",
    "run_q6",
    "run_q9",
    "run_q18",
    "run_compiled",
)


def _snapshot(result, cached: bool):
    """A private copy of a QueryResult (see module docstring)."""
    from repro.engines.base import QueryResult

    details = dict(result.details)
    operators = details.get("operators")
    if operators:
        details["operators"] = {
            name: profile.scaled(1.0) for name, profile in operators.items()
        }
    if cached:
        details["cached"] = True
    return QueryResult(
        workload=result.workload,
        value=result.value,
        tuples=result.tuples,
        work=result.work.scaled(1.0),
        details=details,
    )


class ExecutionCache:
    """Bounded LRU map of engine executions.

    Thread-safe: the query service executes on a worker pool, so
    lookups, stores and stats all happen under one re-entrant lock
    (the critical sections are tiny next to an engine execution).
    """

    def __init__(self, max_entries: int = 512):
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    def lookup(self, key):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return _snapshot(entry, cached=True)

    def store(self, key, result) -> None:
        with self._lock:
            self._entries[key] = _snapshot(result, cached=False)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0


#: The process-wide cache instance.
EXECUTION_CACHE = ExecutionCache()


def _first_party(cls) -> bool:
    return cls.__module__ == "repro" or cls.__module__.startswith("repro.")


def memoized_execution(method_name: str, func):
    """Wrap one engine ``run_*`` method with cache lookup/store."""
    signature = inspect.signature(func)

    @wraps(func)
    def wrapper(self, db, *args, **kwargs):
        cls = type(self)
        if not settings.enabled("exec_cache") or not _first_party(cls):
            return func(self, db, *args, **kwargs)
        try:
            bound = signature.bind(self, db, *args, **kwargs)
            bound.apply_defaults()
            if bound.arguments.get("row_range") is not None:
                # Morsel partials are never cached: their QueryResults
                # carry mutable mergeable state that merging consumes.
                return func(self, db, *args, **kwargs)
            call_args = tuple(
                item for item in bound.arguments.items()
                if item[0] not in ("self", "db", "row_range")
            )
            key = (
                f"{cls.__module__}.{cls.__qualname__}",
                method_name,
                db.identity,
                call_args,
                # Results are bit-identical across the keyed switches,
                # but byte accounting (encoded_nbytes, storage stats)
                # and pruning / routing behaviour are not -- a run must
                # never be served an entry recorded under other settings.
                settings.result_key(),
            )
            hash(key)
        except TypeError:
            return func(self, db, *args, **kwargs)
        with trace.span("execcache", method=method_name):
            cached = EXECUTION_CACHE.lookup(key)
            if cached is not None:
                trace.annotate(outcome="hit")
                return cached
            trace.annotate(outcome="miss")
            result = func(self, db, *args, **kwargs)
            EXECUTION_CACHE.store(key, result)
            return result

    wrapper._execcache_wrapped = True
    return wrapper
