"""Materialized rollups: what routing onto pre-aggregates buys.

The paper's scan-heavy aggregates stream the full lineitem columns on
every execution.  The rollup tier (:mod:`repro.rollup`) materializes
per-(partition, group) exact partials once and lets the router answer
subsumed aggregates from kilobytes instead of the base gigabytes.
This figure quantifies that gap per engine and workload on a
shipdate-partitioned twin of lineitem: rollup rows read, base rows and
bytes avoided, the bandwidth-bound modeled speedup, and a bit-identity
check that the routed value equals the full base-table execution.

Fallbacks are part of the picture: the interpreter engines' Q1
finisher re-derives its per-group reference from base data (numpy
pairwise summation, not reproducible from partials), so DBMS R/DBMS C
fall back on Q1 by design and the figure reports the reason instead of
pretending coverage.  Measured wall-clock wins live in BENCH_PR7.json;
this figure reports the modeled byte-stream picture, which is
layout-stable across hosts.
"""

from __future__ import annotations

from repro.analysis.result import FigureResult
from repro.engines import ALL_ENGINES
from repro.hardware.memory import MemorySystem
from repro.rollup import (
    PartitionSpec,
    build_and_attach,
    partitioned_database,
    route,
)
from repro.tpch.schema import LINEITEM_SCANS

#: (method, kwargs, label) triples the figure routes.
_WORKLOADS = (
    ("run_q1", {}, "Q1"),
    ("run_groupby", {}, "group-by"),
    ("run_projection", {"degree": 2}, "projection p2"),
)


def _partitioned_twin(db):
    """Shipdate-partitioned twin of ``db`` with the default rollup
    attached.  The upper break sits just past the Q1 cutoff so the
    predicate is partition-aligned (every partition decides wholly)."""
    (cutoff,) = LINEITEM_SCANS["run_q1"].atoms
    twin = partitioned_database(
        db, PartitionSpec(cutoff.column, (2200.0, cutoff.threshold + 0.5))
    )
    build_and_attach(twin)
    return twin


def sec_rollup(db, profiler) -> FigureResult:
    """Routed rows/bytes and modeled speedup per engine workload."""
    figure = FigureResult(
        "sec-rollup",
        "Rollup routing: rows read, base traffic avoided, modeled speedup",
        (
            "engine", "workload", "routed", "reason", "rows_read",
            "base_rows_avoided", "bytes_avoided_mb", "modeled_speedup",
            "identical",
        ),
    )
    twin = _partitioned_twin(db)
    memory = MemorySystem(profiler.spec)

    for engine_cls in ALL_ENGINES:
        engine = engine_cls()
        for method, kwargs, label in _WORKLOADS:
            baseline = getattr(engine, method)(twin, **kwargs)
            result, decision = route(twin, engine, method, kwargs)
            if result is None:
                figure.add_row(
                    engine=engine.name, workload=label, routed=False,
                    reason=decision["reason"], rows_read=0,
                    base_rows_avoided=0, bytes_avoided_mb=0.0,
                    modeled_speedup=1.0, identical=True,
                )
                continue
            base_bytes = decision["base_bytes_avoided"]
            figure.add_row(
                engine=engine.name, workload=label, routed=True,
                reason=decision["reason"],
                rows_read=decision["rows_read"],
                base_rows_avoided=decision["base_rows_avoided"],
                bytes_avoided_mb=round(
                    (base_bytes - decision["bytes_read"]) / 1e6, 2
                ),
                modeled_speedup=round(
                    memory.pruning_speedup(
                        base_bytes, decision["bytes_read"]
                    ),
                    1,
                ),
                identical=bool(result.value == baseline.value),
            )

    rollup = twin.rollup(twin.rollup_names[0])
    figure.note(
        f"rollup {rollup.name!r}: {rollup.n_rows} pre-aggregated "
        f"(partition, group) cells ({rollup.nbytes} bytes) over "
        f"{twin.table('lineitem').n_rows} base rows; partials are exact "
        "unit counts that add integer-exactly and round once, so routed "
        "values are bit-identical to the base scan ('identical' column)"
    )
    figure.note(
        "DBMS R / DBMS C fall back on Q1 by design: their finisher "
        "recomputes the per-group reference from base data with numpy "
        "pairwise summation, which partials cannot reproduce bit-exactly"
    )
    figure.note(
        "modeled_speedup is the bandwidth-bound upper bound of reading "
        "the rollup bytes instead of the base scan stream "
        "(hardware.memory.pruning_speedup); measured wall-clock wins "
        "are recorded in BENCH_PR7.json"
    )
    return figure
