"""Data-skipping extension: what zone-map pruning buys each engine.

The paper's scan sections stream every tuple whatever the predicate
selects.  The zone-map tier (:mod:`repro.storage.zonemap` +
:mod:`repro.core.pruning`) records per-chunk min/max statistics and
lets the planner discard whole morsel chunks before dispatch when the
data is clustered on a predicate column.  This figure quantifies that
gap on a shipdate-clustered twin of lineitem: chunks and bytes skipped
per engine and workload, the bandwidth-bound modeled speedup, and a
bit-identity check that the pruned execution returns exactly the
result (and recorded work) of the full scan.

The shuffled generator order is the control: its full-range chunks
decide nothing and pruning degenerates to the normal scan -- exactly
the clustered/unclustered contrast the data-skipping literature
predicts.  Measured wall-clock wins live in BENCH_PR6.json (raw
clustered twin, selective predicates); this figure reports the modeled
byte-stream picture, which is layout-stable across hosts.
"""

from __future__ import annotations

from repro.analysis.result import FigureResult
from repro.analysis.twins import figure_twin
from repro.core import pruning
from repro.engines import ALL_ENGINES
from repro.hardware.memory import MemorySystem
from repro.storage import Database
from repro.storage.zonemap import CHUNK_ROWS
from repro.tpch.schema import scan_columns

#: (method, kwargs, label) pairs the figure prunes.
_WORKLOADS = (
    ("run_q6", {}, "Q6"),
    ("run_selection", {"selectivity": 0.02}, "selection 2%"),
)


def _clustered_twin(db) -> Database:
    """Raw (unencoded) twin of ``db`` with lineitem sorted on
    l_shipdate: the physical design pruning rewards.  Raw keeps the
    byte accounting on 8-byte streams; the encoded twin's sorted
    predicate columns collapse into RLE whose run-granular compares
    leave little for pruning to win (see BENCH_PR6.json)."""
    tables = {name: db.table(name).decoded() for name in db.table_names}
    order = db.table("lineitem").sort_order("l_shipdate")
    tables["lineitem"] = tables["lineitem"].select(order)
    return db.twin(f"{db.name}-clustered", tables)


def sec_pruning(db, profiler) -> FigureResult:
    """Chunks/bytes skipped and modeled speedup per engine workload."""
    figure = FigureResult(
        "sec-pruning",
        "Zone-map pruning: skipped chunks, bytes and modeled speedup",
        (
            "engine", "workload", "morsels_total", "morsels_pruned",
            "rows_pruned", "bytes_pruned_mb", "modeled_speedup",
            "identical",
        ),
    )
    clustered = figure_twin(db, _clustered_twin)
    memory = MemorySystem(profiler.spec)
    lineitem = clustered.table("lineitem")

    for engine_cls in ALL_ENGINES:
        engine = engine_cls()
        for method, kwargs, label in _WORKLOADS:
            atoms = pruning.atoms_for(clustered, method, kwargs)
            plan = pruning.compute_prune_plan(clustered, atoms)
            baseline = getattr(engine, method)(clustered, **kwargs)
            if plan is None or plan.nothing_pruned:
                figure.add_row(
                    engine=engine.name, workload=label,
                    morsels_total=plan.chunks_total if plan else 0,
                    morsels_pruned=0, rows_pruned=0, bytes_pruned_mb=0.0,
                    modeled_speedup=1.0, identical=True,
                )
                continue
            pruned = pruning.execute_pruned(
                engine, clustered, method, dict(kwargs), plan
            )
            identical = (
                pruned.value == baseline.value
                and pruned.tuples == baseline.tuples
                and pruned.work == baseline.work
            )
            summary = plan.summary(clustered, method)
            itemsize = sum(
                lineitem.column(c).itemsize
                for c in dict.fromkeys(scan_columns(method))
            )
            total_bytes = lineitem.n_rows * itemsize
            figure.add_row(
                engine=engine.name, workload=label,
                morsels_total=plan.chunks_total,
                morsels_pruned=plan.chunks_pruned,
                rows_pruned=plan.rows_pruned,
                bytes_pruned_mb=round(summary["bytes_pruned"] / 1e6, 2),
                modeled_speedup=round(
                    memory.pruning_speedup(
                        total_bytes, total_bytes - summary["bytes_pruned"]
                    ),
                    3,
                ),
                identical=bool(identical),
            )

    # Control: the generator's shuffled order prunes nothing.
    control = pruning.compute_prune_plan(
        db, pruning.atoms_for(db, "run_q6", {})
    )
    control_pruned = 0 if control is None else control.chunks_pruned
    figure.note(
        "shuffled-order control: the unsorted generator database prunes "
        f"{control_pruned} of "
        f"{0 if control is None else control.chunks_total} chunks for Q6 "
        "(full-range chunks decide nothing; the runtime falls back to "
        "the normal scan)"
    )
    figure.note(
        f"zone-map chunk = {CHUNK_ROWS} rows; pruned executions "
        "synthesize exact per-chunk partials, so results, tuple counts "
        "and recorded work stay bit-identical ('identical' column)"
    )
    figure.note(
        "modeled_speedup is the bandwidth-bound upper bound on the "
        "workload's scan stream (hardware.memory.pruning_speedup); "
        "measured wall-clock wins are recorded in BENCH_PR6.json"
    )
    return figure
