"""TPC-H query driver (Section 6).

Runs Q1, Q6, Q9 and Q18 on the profiled engines, cross-checking engine
results against the numpy reference implementations.  Typer and
Tectorwise return summaries computed by their own kernels, checked to a
tolerance; the interpreter engines return the reference answer itself,
checked exactly.
"""

from __future__ import annotations

import numpy as np

from repro.engines.base import Engine
from repro.tpch.queries import (
    PROFILED_QUERIES,
    q1_reference,
    q6_reference,
    q9_reference,
    q18_reference,
)
from repro.core.profiler import MicroArchProfiler
from repro.core.report import ProfileReport


def _check_q1(db, value) -> bool:
    reference = q1_reference(db)
    if isinstance(value, dict) and "sum_qty" in value:
        expected = sum(group["sum_qty"] for group in reference.values())
        return np.isclose(value["sum_qty"], expected, rtol=1e-9)
    return value == reference


def _check_q6(db, value) -> bool:
    return np.isclose(float(value), q6_reference(db), rtol=1e-9)


def _check_q9(db, value) -> bool:
    reference = q9_reference(db)
    if isinstance(value, dict):
        return value == reference
    return np.isclose(float(value), sum(reference.values()), rtol=1e-6)


def _check_q18(db, value) -> bool:
    reference = q18_reference(db)
    if "winners" in value:
        return value["winners"] == len(reference)
    return value == reference


RESULT_CHECKS = {"Q1": _check_q1, "Q6": _check_q6, "Q9": _check_q9, "Q18": _check_q18}


def run_tpch(
    db,
    engines,
    profiler: MicroArchProfiler,
    queries=PROFILED_QUERIES,
    verify: bool = True,
) -> dict[str, dict[str, ProfileReport]]:
    """Profile each engine on each query.

    Returns ``{engine name: {query id: ProfileReport}}``.  With
    ``verify`` (default) every engine result is checked against the
    numpy reference implementation.
    """
    results: dict[str, dict[str, ProfileReport]] = {}
    for engine in engines:
        per_query = {}
        for query_id in queries:
            query = engine.run_tpch(db, query_id)
            if verify and not RESULT_CHECKS[query_id](db, query.value):
                raise AssertionError(
                    f"{engine.name} produced a wrong result for {query_id}"
                )
            per_query[query_id] = profiler.profile(engine, query)
        results[engine.name] = per_query
    return results


def run_predicated_q6(
    db, engine: Engine, profiler: MicroArchProfiler
) -> dict[str, ProfileReport]:
    """Section 7's predicated Q6 experiment for one engine."""
    branched = engine.run_q6(db)
    predicated = engine.run_q6(db, predicated=True)
    if not np.isclose(branched.value, predicated.value, rtol=1e-9):
        raise AssertionError(f"{engine.name} predicated Q6 result diverges")
    return {
        "branched": profiler.profile(engine, branched),
        "predicated": profiler.profile(engine, predicated),
    }
