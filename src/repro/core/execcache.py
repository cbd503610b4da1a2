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
- **Copy on both put and get.**  Callers receive a private copy made
  by :meth:`repro.engines.base.QueryResult.copy` (work profile and
  operator profiles copied with every count's value and type), so a
  hit carries the bits of a fresh run, callers that mutate their
  result cannot poison the cache and cached entries cannot be mutated
  through earlier handles.
- **Only first-party engines participate.**  Engine subclasses defined
  outside ``repro.*`` (test doubles that override behaviour while
  inheriting ``name``) bypass the cache entirely.
- Served copies carry ``details["cached"] = True`` so downstream
  reports can mark memoized measurements (see
  :class:`repro.core.report.ProfileReport`).

The same cache holds the numpy reference answers of the four TPC-H
queries (:func:`memoized_reference`), keyed by ``("reference", function
name, database identity)``: the interpreter engines' finishers and the
result checks of every figure ask for them, and the answer depends on
the database alone.  Callers receive a deep copy, for the reason above.

Disable with ``REPRO_EXEC_CACHE=0``: every engine run and every
reference answer is then computed afresh.
"""

from __future__ import annotations

import copy
import inspect
import threading
from functools import wraps

from repro import memo, settings
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


#: The process-wide cache; entries are private copies (see module docstring).
EXECUTION_CACHE = memo.shared("execution", 512)


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
            )
            hash(key)
        except TypeError:
            return func(self, db, *args, **kwargs)
        with trace.span("execcache", method=method_name):
            cached = EXECUTION_CACHE.get(key)
            if cached is not None:
                trace.annotate(outcome="hit")
                hit = cached.copy()
                hit.details["cached"] = True
                return hit
            trace.annotate(outcome="miss")
            result = func(self, db, *args, **kwargs)
            EXECUTION_CACHE.put(key, result.copy())
            return result

    wrapper._execcache_wrapped = True
    return wrapper


#: Reference answers served from :data:`EXECUTION_CACHE` since import;
#: its ``hits`` count them too (see :mod:`repro.analysis.registry`).
reference_hits = 0
_reference_hits_lock = threading.Lock()


def memoized_reference(func):
    """Wrap a reference implementation ``func(db)`` with cache
    lookup/store; every caller gets a private deep copy."""

    @wraps(func)
    def wrapper(db):
        global reference_hits
        if not settings.enabled("exec_cache"):
            return func(db)
        key = ("reference", func.__name__, db.identity)
        answer = EXECUTION_CACHE.get(key)
        if answer is None:
            answer = EXECUTION_CACHE.put(key, func(db))
        else:
            with _reference_hits_lock:
                reference_hits += 1
        return copy.deepcopy(answer)

    return wrapper
