"""Per-query engine chooser: predict the cheapest route before running.

The paper's conclusion is that no single execution style wins every
query -- data-centric (Typer) code keeps intermediates in registers but
serialises on dependent probes, vector-at-a-time (Tectorwise) code
pays vector materialization for memory-level parallelism, and the fused
numpy kernel programs of :mod:`repro.compile` behave like a wide-vector
engine with full-column passes.  This module turns that observation
into a *decision procedure*: given a bound query, it synthesizes an
analytic :class:`~repro.core.workprofile.WorkProfile` for each
candidate route from sampled cardinalities, prices each profile with
the existing cycle/memory model
(:class:`~repro.core.profiler.MicroArchProfiler`), and records which
route the model predicts to be fastest.

The chooser is *advisory*: the serve layer attaches the decision to
``result.details["chooser"]`` so predictions can be validated against
measured latencies (olapbench's ``compile.chooser_rank_agreement``),
but it never overrides the engine the caller asked for.

The synthetic profiles are estimates, not measurements -- they mirror
the recording formulas of the real executions (sequential column
passes, selection-vector gathers, hash-probe random streams) but run
no query code.  Cardinalities come from deterministic prefix samples,
so a decision is reproducible for a given database.
"""

from __future__ import annotations

import numpy as np

from repro import memo
from repro.compile import CompileError
from repro.compile.program import (
    AGG_INSTRS,
    FILTER_INSTRS,
    GROUP_INSTRS,
    HASH_INSTRS,
    VISIT_INSTRS,
    _NUMPY_OPS,
    KernelProgram,
    _const_mask,
    compiled_program,
)

#: Rows of the deterministic prefix sample used for selectivity and
#: group-cardinality estimates (64-aligned like everything else).
SAMPLE_ROWS = 65536

#: Bytes of one hash-table entry / bucket head, matching
#: :mod:`repro.engines.hashtable`.
_ENTRY_BYTES = 24
_HEAD_BYTES = 8

#: Code footprints of the candidate routes (the compiled route runs the
#: small kernel-program driver, not a full engine's operator library).
_FOOTPRINTS = {
    "Typer": 24 * 1024,
    "Tectorwise": 48 * 1024,
    "compiled": 16 * 1024,
}


class ChooserError(RuntimeError):
    """The chooser cannot model this bound query."""


# ----------------------------------------------------------------------
# Cardinality estimation
# ----------------------------------------------------------------------


def _sample_mask(table, filters, n_rows: int) -> tuple[np.ndarray, int]:
    """Conjunctive filter mask over the table's prefix sample."""
    sample = min(n_rows, SAMPLE_ROWS)
    if sample == 0:
        return np.zeros(0, dtype=bool), 0
    mask = np.ones(sample, dtype=bool)
    for flt in filters:
        if flt.other is not None:
            mask &= _NUMPY_OPS[flt.op](
                table[flt.column][:sample], table[flt.other][:sample]
            )
        else:
            mask &= _const_mask(table, flt, 0, sample)
    return mask, sample


def estimate_cardinalities(db, program: KernelProgram) -> dict:
    """Sampled row-count estimates for each stage of ``program``.

    Filter selectivity comes from evaluating the real predicates over a
    deterministic prefix sample of each table.  Join hit fractions use
    the foreign-key structure of the schema: an unfiltered build side
    matches every probe key, so the hit fraction is the build side's
    own filter selectivity (compounded down the probe chain).
    """
    driving = db.table(program.driving)
    n = driving.n_rows
    mask, sample = _sample_mask(driving, program.filters, n)
    selectivity = float(np.count_nonzero(mask)) / sample if sample else 0.0

    joins = []
    survivors = n * selectivity
    for step in program.steps:
        build_table = db.table(step.build.table)
        b_rows = build_table.n_rows
        b_mask, b_sample = _sample_mask(build_table, step.build.filters, b_rows)
        b_sel = float(np.count_nonzero(b_mask)) / b_sample if b_sample else 0.0
        kept = b_rows * b_sel
        payload_cols = max(1, len(step.build.payload))
        working_set = (
            kept * (_ENTRY_BYTES + 8.0 * payload_cols) + kept * _HEAD_BYTES
        )
        joins.append(
            {
                "table": step.build.table,
                "build_rows": int(round(kept)),
                "hit_fraction": b_sel,
                "working_set_bytes": float(working_set),
            }
        )
        survivors *= b_sel if b_sel > 0.0 else 0.0

    if program.group_refs:
        groups = 1.0
        for table_name, column in program.group_refs:
            groups *= max(1, _distinct_in_sample(db, table_name, column))
        groups = min(groups, max(1.0, survivors))
    else:
        groups = 1.0

    return {
        "driving": program.driving,
        "rows": int(n),
        "selectivity": selectivity,
        "survivors": float(survivors),
        "joins": joins,
        "groups": float(groups),
    }


def _distinct_in_sample(db, table_name: str, column: str) -> int:
    """Distinct values in the prefix sample of one GROUP BY column: a
    function of the database alone, so it is counted once per column
    and kept beside the decisions."""

    def count() -> int:
        table = db.table(table_name)
        prefix = min(table.n_rows, SAMPLE_ROWS)
        return len(np.unique(table[column][:prefix])) if prefix else 1

    return _DECISIONS.get_or_build(("distinct", db.identity, table_name, column), count)


# ----------------------------------------------------------------------
# Synthetic per-route profiles
# ----------------------------------------------------------------------


def _blank_profile(route: str):
    from repro.core.workprofile import WorkProfile

    return WorkProfile(code_footprint_bytes=_FOOTPRINTS[route])


def _synthesize(route: str, program: KernelProgram, est: dict):
    """An analytic WorkProfile for running ``program`` via ``route``."""
    work = _blank_profile(route)
    n = float(est["rows"])
    sel = est["selectivity"]
    r = max(1.0, n * sel)
    slots = max(1, len(program.slots))
    n_filters = max(1, len(program.filters))
    grouped = bool(program.group_refs)

    # Filter columns are streamed from DRAM on every route.
    work.record_sequential_read(n * 8.0 * len(program.filters))

    if route == "compiled":
        # Full-column vector kernels: masks over all n rows, then
        # selection-vector gathers for the surviving fraction.
        work.record_work(instructions=n * FILTER_INSTRS * n_filters, alu=n * n_filters)
        work.record_branch_stream("est filters", n * len(program.filters), sel)
        touched = r * 8.0 * (slots + len(program.group_refs))
        work.record_sparse_scan("est gathers", touched, min(1.0, max(sel, 1e-6)))
        rows = r
        for join in est["joins"]:
            work.record_work(instructions=rows * (HASH_INSTRS + VISIT_INSTRS))
            work.record_random(
                "est probes", rows, join["working_set_bytes"], dependent=False
            )
            work.record_branch_stream("est hits", rows, join["hit_fraction"])
            rows *= join["hit_fraction"]
        work.record_work(instructions=rows * AGG_INSTRS * slots, alu=rows * slots)
        if grouped:
            work.record_work(instructions=rows * GROUP_INSTRS)
    elif route == "Typer":
        # Data-centric fused loop: tight per-row code, intermediates in
        # registers, but probes are dependent loads in the row loop.
        work.record_work(
            instructions=n * (2.0 + 2.0 * len(program.filters)), alu=n
        )
        work.record_branch_stream("est filters", n, sel)
        work.record_sparse_scan(
            "est row gathers", r * 8.0 * slots, min(1.0, max(sel, 1e-6))
        )
        rows = r
        for join in est["joins"]:
            work.record_work(instructions=rows * 6.0)
            work.record_random(
                "est probes", rows, join["working_set_bytes"], dependent=True
            )
            work.record_branch_stream("est hits", rows, join["hit_fraction"])
            rows *= join["hit_fraction"]
        work.record_work(instructions=rows * (3.0 * slots + (4.0 if grouped else 0.0)))
    elif route == "Tectorwise":
        # Vector-at-a-time: per-vector dispatch plus cache-resident
        # intermediate vectors, independent probe streams.
        passes = max(1.0, n / 1024.0)
        work.record_work(
            instructions=n * (1.5 + 1.5 * len(program.filters)) + passes * 64.0,
            alu=n,
        )
        work.record_branch_stream("est filters", n, sel)
        work.record_sparse_scan(
            "est vector gathers", r * 8.0 * slots, min(1.0, max(sel, 1e-6))
        )
        rows = r
        vector_traffic = 0.0
        for join in est["joins"]:
            work.record_work(instructions=rows * 5.0)
            work.record_random(
                "est probes", rows, join["working_set_bytes"], dependent=False
            )
            work.record_branch_stream("est hits", rows, join["hit_fraction"])
            vector_traffic += rows * 8.0 * 2.0
            rows *= join["hit_fraction"]
        vector_traffic += rows * 8.0 * slots
        work.record_cached_traffic(read=vector_traffic, write=vector_traffic)
        work.record_work(instructions=rows * (4.0 * slots + (5.0 if grouped else 0.0)))
    else:
        raise ChooserError(f"unknown route {route!r}")
    return work


# ----------------------------------------------------------------------
# Decisions
# ----------------------------------------------------------------------

_DECISIONS = memo.shared("chooser", 64)
clear_chooser_cache = _DECISIONS.clear


def choose(db, bound) -> dict:
    """The model's route prediction for one bound query on ``db``.

    Returns a plain-data decision dict (JSON-serialisable)::

        {"route": "compiled" | "template",
         "chosen": "<cheapest candidate>",
         "predicted_cycles": {"Typer": ..., "Tectorwise": ..., "compiled": ...},
         "estimates": {...},
         "workload": ...}

    A decision describes a statement shape on one route: it is cached
    per (database, workload, method, shape), so every binding of a shape
    that lowers to the same call shares it, and its ``estimates`` come
    from the first binding priced.  A query lowered from a plan rather
    than from SQL text has no shape; its plan stands in.

    Raises :class:`ChooserError` when the plan cannot be modelled (the
    chooser needs the compiled program's structure as its cost basis).
    """
    if bound.plan is None:
        raise ChooserError("bound query carries no logical plan")
    shape = bound.shape if bound.shape is not None else bound.plan
    key = (db.identity, bound.workload, bound.method, shape)
    return dict(_DECISIONS.get_or_build(key, lambda: _price(db, bound)))


def _price(db, bound) -> dict:
    try:
        program = compiled_program(bound.plan)
    except CompileError as exc:
        raise ChooserError(f"plan is not compilable: {exc}") from None
    return _decide(db, bound, program)


def _decide(db, bound, program: KernelProgram) -> dict:
    from repro.core.profiler import MicroArchProfiler
    from repro.engines.base import QueryResult

    est = estimate_cardinalities(db, program)
    profiler = MicroArchProfiler()
    predicted: dict[str, float] = {}
    for route in ("Typer", "Tectorwise", "compiled"):
        work = _synthesize(route, program, est)
        stub = QueryResult(
            workload=program.workload,
            value=None,
            tuples=int(est["rows"]),
            work=work,
            details={},
        )
        engine_name = route if route != "compiled" else "Typer"
        predicted[route] = float(profiler.profile(engine_name, stub).cycles)
    chosen = min(predicted, key=lambda name: (predicted[name], name))
    return {
        "workload": bound.workload,
        "method": bound.method,
        "route": "compiled" if bound.method == "run_compiled" else "template",
        "chosen": chosen,
        "predicted_cycles": predicted,
        "estimates": est,
    }
