"""Subsumption matching and query routing onto materialized rollups.

Given a bound engine call, the router decides whether an attached
rollup *subsumes* it -- the query's GROUP BY keys are a subset of the
rollup's keys, every aggregate it needs is stored as an exact partial,
and every WHERE conjunct is *partition-decidable* (each non-empty
partition either passes the predicate entirely or fails it entirely,
proven from the partitioning's min/max statistics).  When all three
hold the query is answered from the rollup's pre-aggregated partials:
unit counts add exactly across the included (partition, group) cells
and round once, so the value is bit-identical to the base-table scan.

Fallbacks are first-class: any miss (unsupported method, keys not
subsumed, a partition the statistics cannot decide, an engine whose
finisher re-derives the value from base data) returns no result plus a
reason string, and the caller runs the normal path.  The value shapes
this router reproduces were pinned per engine:

* ``run_projection`` / ``run_groupby`` reduce to one exact global sum
  on all four engines;
* ``run_q1`` decomposes on Typer and Tectorwise (four exact sums plus a
  group count).  The interpreter engines' ``_finish_q1`` recomputes a
  per-group reference dict from the base table with numpy pairwise
  summation -- order-dependent, hence not reproducible from partials --
  so DBMS R / DBMS C fall back on Q1 by design.

Routing is always attempted on a database with rollups attached; a
database without them is never routed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.storage.zonemap import ALL_FALSE, ALL_TRUE
from repro.tpch.schema import LINEITEM_SCANS, PredicateAtom, scan_columns


def has_rollups(db) -> bool:
    return bool(getattr(db, "rollup_names", ()))


@dataclass(frozen=True)
class QueryProfile:
    """What a bound call needs from a rollup: group keys, sum
    expressions (in assembly order), WHERE atoms, and whether the value
    includes a distinct-group count."""

    method: str
    keys: tuple[str, ...]
    expressions: tuple[str, ...]
    atoms: tuple[PredicateAtom, ...]
    needs_groups: bool
    hpe_only: bool


def profile_for(method: str, kwargs) -> QueryProfile | None:
    """The rollup profile of a bound call, or None when the method's
    value cannot be assembled from partials (unsupported method, morsel
    sub-range, SIMD variants)."""
    kwargs = dict(kwargs)
    if kwargs.get("row_range") is not None or kwargs.get("simd"):
        return None
    if method == "run_projection":
        degree = kwargs.get("degree")
        if degree is None or not 1 <= int(degree) <= 4:
            return None
        return QueryProfile(
            method, (), (f"proj:{int(degree)}",), (), False, False
        )
    if method == "run_groupby":
        return QueryProfile(method, (), ("proj:1",), (), False, False)
    if method == "run_q1":
        return QueryProfile(
            method,
            ("l_returnflag", "l_linestatus"),
            ("col:l_quantity", "proj:1", "disc_price", "charge"),
            LINEITEM_SCANS[method].atoms,
            True,
            True,
        )
    return None


def _match(db, rollup, profile: QueryProfile):
    """Included-partition mask when the rollup subsumes the profile,
    else a fallback reason string."""
    if not set(profile.keys) <= set(rollup.keys):
        return "keys-not-subsumed"
    for expr in profile.expressions:
        if rollup.aggregate_named("sum", expr) is None:
            return "aggregate-missing"
    if profile.needs_groups and rollup.aggregate_named("count") is None:
        return "count-missing"
    if not profile.atoms:
        return np.ones(rollup.n_partitions, dtype=bool)
    if rollup.partition_column is None:
        return "unpartitioned"
    partitioning = getattr(db.table(rollup.base_table), "partitioning", None)
    if partitioning is None or partitioning.column != rollup.partition_column:
        return "partitioning-missing"
    if any(atom.column != partitioning.column for atom in profile.atoms):
        return "predicate-not-partition-aligned"
    counts = partitioning.row_counts
    include = np.ones(partitioning.n_partitions, dtype=bool)
    exclude = np.zeros(partitioning.n_partitions, dtype=bool)
    for atom in profile.atoms:
        verdicts = partitioning.verdicts(atom.op, atom.threshold)
        include &= verdicts == ALL_TRUE
        exclude |= verdicts == ALL_FALSE
    undecided = ~include & ~exclude & (counts > 0)
    if undecided.any():
        return "partition-straddle"
    return include


def _assemble(engine, db, rollup, profile: QueryProfile, selected, kwargs, finish):
    """The routed :class:`QueryResult`: exact partial merge + an honest
    (rollup-sized) work profile.  ``finish=False`` stops before the one
    global rounding and returns the ExactSum as a morsel partial."""
    from repro.engines.base import _LABELS, MergedPartials, QueryResult

    agg_names = tuple(
        rollup.aggregate_named("sum", expr).name for expr in profile.expressions
    )
    sums = [rollup.sum_units(name, selected) for name in agg_names]
    if profile.needs_groups:
        agg_names = agg_names + (rollup.aggregate_named("count").name,)

    n_read = len(selected)
    work = engine._new_work()
    # A rollup scan is a tight decode-and-accumulate loop over n_read
    # tiny rows; the traffic is the rollup bytes actually touched.
    work.record_work(
        instructions=8.0 * n_read, alu=4.0 * n_read, loads=2.0 * n_read,
        chain=float(n_read),
    )
    work.record_sequential_read(float(rollup.row_bytes(agg_names) * n_read))
    if profile.method == "run_q1":
        # The state a Q1 scan hands its finisher: four exact sums and
        # the (flag, status) keys present.
        flags = rollup.key_columns["l_returnflag"][selected]
        status = rollup.key_columns["l_linestatus"][selected]
        group_key = flags.astype(np.int64) * 2 + status.astype(np.int64)
        state = dict(
            zip(("sum_qty", "sum_base_price", "sum_disc_price", "sum_charge"), sums),
            keys=set(np.unique(group_key).tolist()),
        )
        return engine._finish_q1(db, MergedPartials(state, work, n_read))

    # run_projection / run_groupby: one global sum, kept bare -- their
    # finishers add SIMD details, and the group-by finisher builds the
    # group hash table this route exists to avoid.
    params = {"degree": int(kwargs["degree"])} if profile.method == "run_projection" else {}
    label = _LABELS[profile.method[len("run_"):]](**params)
    if not finish:
        # The global-sum finishers consume exactly state["sum"] + the
        # merged tuples, so this is indistinguishable from a scan
        # partial.  tuples stays the base-row count: cross-shard sums
        # must equal the single-node scan's count.
        n_rows = db.table(rollup.base_table).n_rows
        return engine._partial_result(
            label, {"sum": sums[0]}, n_rows, work, (0, n_rows)
        )
    return QueryResult(label, sums[0].total(), n_read, engine._finalize_profile(work), {})


def route(db, engine, method: str, kwargs, finish: bool = True):
    """Try to answer one bound call from an attached rollup.

    Returns ``(result, decision)``; ``result`` is None on fallback and
    ``decision`` always records the outcome and reason.  With
    ``finish=False`` (a shard node's share of a scattered query) the
    result is a still-mergeable partial, and only key-less, atom-less
    global sums route: a per-shard finished value would round once per
    shard, and per-group or filtered output would need
    partition-aligned predicates per shard, which hash sharding does
    not preserve.
    """
    decision = {
        "rollup_used": False,
        "reason": "no-rollup",
        "rollup": None,
        "rows_read": 0,
        "base_rows_avoided": 0,
        "bytes_read": 0,
        "base_bytes_avoided": 0,
    }
    kwargs = dict(kwargs)
    profile = profile_for(method, kwargs)
    if profile is None:
        decision["reason"] = "unsupported-method"
        return None, decision
    if not finish and (profile.atoms or profile.keys or profile.needs_groups):
        decision["reason"] = "partial-not-a-global-sum"
        return None, decision
    if profile.hpe_only:
        from repro.engines.interpreter import InterpreterEngine

        if isinstance(engine, InterpreterEngine):
            decision["reason"] = "engine-finisher-not-decomposable"
            return None, decision
    names = getattr(db, "rollup_names", ())
    if not names:
        return None, decision
    reason = "no-matching-rollup"
    for name in names:
        rollup = db.rollup(name)
        matched = _match(db, rollup, profile)
        if isinstance(matched, str):
            reason = matched
            continue
        selected = np.flatnonzero(matched[rollup.partition_ids])
        result = _assemble(engine, db, rollup, profile, selected, kwargs, finish)
        table = db.table(rollup.base_table)
        decision.update(
            rollup_used=True,
            reason="routed",
            rollup=rollup.name,
            partitions_included=int(matched.sum()),
            partitions_total=int(rollup.n_partitions),
            rows_read=len(selected),
            base_rows_avoided=int(table.n_rows),
            bytes_read=int(result.work.seq_read_bytes),
            base_bytes_avoided=int(table.bytes_for(scan_columns(method, kwargs))),
        )
        return result, decision
    decision["reason"] = reason
    return None, decision


def attempt(db, engine, method: str, kwargs, executor: str, finish: bool = True):
    """Route with a ``route`` span: the first stage of
    :func:`repro.core.parallel.run_call` on every executor.

    Returns ``(None, None)`` without emitting a span when the database
    has no rollups, so span trees of rollup-free databases are
    unchanged.  Otherwise emits one ``route`` span with
    ``rollup_used``/``reason`` attributes and, on a hit, returns the
    routed result with the decision in ``details["rollup"]``.
    """
    if not has_rollups(db):
        return None, None
    from repro.obs import trace

    with trace.span("route", executor=executor):
        result, decision = route(db, engine, method, kwargs, finish)
        trace.annotate(
            rollup_used=decision["rollup_used"], reason=decision["reason"]
        )
    if result is not None:
        result.details["rollup"] = decision
    return result, decision
