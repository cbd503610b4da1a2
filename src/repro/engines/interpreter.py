"""Interpretation-based commercial engines ("DBMS R" and "DBMS C").

The paper profiles two closed-source commercial systems: a traditional
row store (DBMS R) and its column-store extension (DBMS C).  Their
defining micro-architectural property is a retired-instruction
footprint one to two orders of magnitude larger than the high
performance engines' -- tuple-at-a-time (R) or block-at-a-time (C)
interpretation with virtual dispatch, type/NULL checks and expression
trees -- while *not* being Icache-bound (the paper's headline negative
result).

:class:`InterpreterEngine` implements the shared Volcano-style cost
model; the two concrete classes configure granularity (1 vs 1024
tuples per ``next()``), per-expression interpretation cost, storage
layout (full row pages vs single columns) and code footprint.

The four micro-benchmarks run through
:class:`~repro.engines.base.Engine`'s shared data passes and are only
*priced* here (``_cost_projection`` ... ``_cost_groupby``).  The four
TPC-H queries keep their own ``run_*``: the interpreters model *cost*,
not novel execution, so a morsel measures just the streams that cost
depends on (filter masks, the green-part probe) and the result values
come from the reference implementations, evaluated once in the merge
finisher.

Morsel protocol (:mod:`repro.engines.morsel`): each morsel records the
interpretation cost of its own rows -- all scalar quantities are dyadic
and merge exactly -- and defers the non-dyadic operation-mix rates
(``alu = instructions * 0.30`` etc.) through :attr:`PENDING_RATES`, so
the single resolution at finalization rounds identically for any
partitioning.
"""

from __future__ import annotations

import numpy as np

from repro.engines.base import Engine, Facts
from repro.engines.morsel import (
    bytes_for_rows,
    resolve_range,
    row_scan_bytes,
    shared_structure,
)
from repro.engines.scan import AGG_STATE_KEY, predicate_mask
from repro.storage import Database
from repro.tpch import schema as sc


class InterpreterEngine(Engine):
    """Shared Volcano-style interpreter cost model."""

    #: Instructions per operator ``next()`` call (virtual dispatch,
    #: tuple-slot management, scheduling) -- paid per block.
    NEXT_COST = 250.0
    #: Instructions to interpret one expression term on one tuple.
    EXPR_COST = 150.0
    #: Tuples delivered per ``next()`` call (1 = tuple-at-a-time).
    BLOCK_SIZE = 1.0
    #: Random accesses into engine state (buffer manager, operator
    #: state, tuple descriptors) per operator per tuple.
    STATE_ACCESSES = 1.0
    #: Working set of that engine state.
    STATE_WS_BYTES = 48 * 1024 * 1024
    #: Serially dependent dispatch loads per operator per tuple.
    CHAIN_PER_OP = 4.0
    #: Misprediction rate of the interpreter's indirect dispatch
    #: branches (real interpreters: a few percent).
    DISPATCH_MISPREDICT = 0.06
    #: Dispatch branches per operator per tuple.
    DISPATCH_BRANCHES = 2.0
    #: Per-value interpretation checks (NULL/type/overflow) carry one
    #: lightly mispredicted branch per expression term.
    VALUE_CHECK_MISPREDICT = 0.015
    #: Fatter hash-table entries than the hand-rolled engines.
    HT_SIZE_FACTOR = 2.0
    #: Effective ILP of the interpretation code: virtual dispatch and
    #: tuple-slot indirection keep the 4-wide core under-filled; the
    #: gap surfaces as Execution stalls (Figure 2).
    EFFECTIVE_ILP = 2.2

    #: The interpreter operation mix (30% ALU, 30% loads, 5% stores of
    #: retired instructions) is applied to the merged instruction total
    #: once, at finalization -- the rates are not dyadic, so per-morsel
    #: application would make merged profiles partition-dependent.
    PENDING_RATES = {
        "interp": (("alu", 0.30), ("loads", 0.30), ("stores", 0.05)),
    }

    def _new_work(self):
        work = super()._new_work()
        work.effective_ilp = self.EFFECTIVE_ILP
        return work

    # ------------------------------------------------------------------
    def _interp_work(
        self, work, tuples: float, n_operators: float, term_evals: float
    ) -> None:
        """Interpretation cost of pushing ``tuples`` through a plan of
        ``n_operators`` evaluating ``term_evals`` expression terms in
        total (term_evals is already multiplied by the tuple counts the
        terms actually run on).

        Records unconditionally (zero-count placeholders included) so
        morsel partials stay congruent; :meth:`Engine._finalize_profile`
        prunes the sub-one-event entries the old guards skipped."""
        next_calls = tuples * n_operators / self.BLOCK_SIZE
        instructions = next_calls * self.NEXT_COST + term_evals * self.EXPR_COST
        work.record_work(
            instructions=instructions,
            chain=tuples * self.CHAIN_PER_OP * n_operators / self.BLOCK_SIZE,
        )
        work.record_pending("interp", instructions)
        state_accesses = tuples * self.STATE_ACCESSES * n_operators / self.BLOCK_SIZE
        # Operator-state and tuple-descriptor lookups chase pointers:
        # the next access depends on the previous load.
        work.record_random(
            "interpreter state", state_accesses, self.STATE_WS_BYTES,
            dependent=True,
        )
        dispatch = tuples * self.DISPATCH_BRANCHES * n_operators / self.BLOCK_SIZE
        work.record_branch_stream(
            "interpreter dispatch", dispatch, 0.5, self.DISPATCH_MISPREDICT
        )
        work.record_branch_stream(
            "interpreted value checks", term_evals, 0.5,
            self.VALUE_CHECK_MISPREDICT,
        )

    def _scan_bytes(self, db: Database, table: str, columns, lo: int, hi: int) -> float:
        """Bytes a scan of rows ``[lo, hi)`` of ``table`` moves
        (layout-dependent)."""
        raise NotImplementedError

    def _full_scan_bytes(self, db: Database, table: str, columns) -> float:
        return self._scan_bytes(db, table, columns, 0, db.table(table).n_rows)

    # ------------------------------------------------------------------
    # Micro-benchmarks: interpretation cost of the shared passes.
    # ------------------------------------------------------------------
    def _cost_projection(
        self, db: Database, facts: Facts, lo: int, hi: int, degree: int, simd: bool = False
    ):
        m = hi - lo
        work = self._new_work()
        # Plan: Scan -> Project -> Aggregate.
        self._interp_work(work, m, n_operators=3, term_evals=m * 2 * degree)
        work.record_sequential_read(
            self._scan_bytes(db, "lineitem", facts.columns, lo, hi)
        )
        return work

    def _cost_selection(
        self,
        db: Database,
        facts: Facts,
        lo: int,
        hi: int,
        selectivity: float,
        predicated: bool = False,
        simd: bool = False,
        thresholds=None,
    ):
        m = hi - lo
        work = self._new_work()
        # Plan: Scan -> Filter -> Project -> Aggregate.  The filter
        # interprets predicates tuple-at-a-time with short-circuiting,
        # so later predicates run on survivors only; the branch-free
        # variant evaluates the projection for every tuple.
        work_terms, _survivors = self._filter_terms_and_streams(
            work, facts.masks, m, predicated
        )
        projected_tuples = m if predicated else len(facts.qualifying)
        term_evals = work_terms + projected_tuples * 2 * len(facts.proj_cols)
        self._interp_work(work, m, n_operators=4, term_evals=term_evals)
        columns = [name for name, _ in facts.masks] + list(facts.proj_cols)
        work.record_sequential_read(self._scan_bytes(db, "lineitem", columns, lo, hi))
        return work

    def _filter_terms_and_streams(self, work, masks, m: int, predicated: bool):
        """Short-circuit predicate evaluation: returns the number of
        term evaluations and records per-predicate branch streams."""
        alive = np.ones(m, dtype=bool)
        term_evals = 0.0
        for name, mask in masks:
            candidates = int(alive.sum())
            term_evals += candidates * 2
            if not predicated:
                work.record_branch_outcomes(f"{name} predicate", mask[alive])
            alive = alive & mask
        if predicated:
            # Branch-free interpretation evaluates everything.
            term_evals = m * 2 * len(masks)
        return term_evals, int(alive.sum())

    def _cost_join(
        self, db: Database, facts: Facts, lo: int, hi: int, size: str, simd: bool = False
    ):
        spec = facts.spec
        m = hi - lo
        lead = lo == 0
        work = self._new_work()
        # Build pipeline: Scan -> HashBuild over the build side (global
        # work, recorded by the lead morsel only).
        n_build = db.table(spec.build_table).n_rows if lead else 0
        self._interp_work(work, n_build, n_operators=2, term_evals=n_build)
        work.record_sequential_read(
            self._full_scan_bytes(db, spec.build_table, [spec.build_key]) if lead else 0.0
        )
        ws = facts.table.working_set_bytes * self.HT_SIZE_FACTOR
        work.record_random("hash build scatter", n_build, ws)
        # Probe pipeline: Scan -> HashJoin -> Project -> Aggregate.
        degree = len(spec.sum_columns)
        self._interp_work(
            work, m, n_operators=4,
            term_evals=m * 2 + facts.state["found"] * 2 * degree,
        )
        work.record_sequential_read(
            self._scan_bytes(db, spec.probe_table, [spec.probe_key, *spec.sum_columns], lo, hi)
        )
        work.record_random("hash probe heads", m, ws)
        work.record_random("hash chain walk", facts.probe.extra_walk, ws, dependent=True)
        work.record_branch_outcomes("probe hit", facts.probe.found)
        return work

    def _cost_groupby(self, db: Database, facts: Facts, lo: int, hi: int):
        m = hi - lo
        work = self._new_work()
        self._interp_work(work, m, n_operators=3, term_evals=m * 3)
        work.record_sequential_read(
            self._scan_bytes(
                db, "lineitem", ["l_partkey", "l_returnflag", "l_extendedprice"], lo, hi
            )
        )
        ws = facts.table.working_set_bytes * self.HT_SIZE_FACTOR
        work.record_random("group table update", m, ws)
        # Constant-rate stream: every morsel records the same global
        # fraction, so the merged stream keeps it bit-for-bit.
        work.record_branch_stream("group collision", m, facts.table.collision_fraction())
        return work

    # ------------------------------------------------------------------
    # TPC-H: interpretation cost over the reference plans.
    # ------------------------------------------------------------------
    def run_q1(self, db: Database, row_range=None):
        lineitem = db.table("lineitem")
        lo, hi = resolve_range(row_range, lineitem.n_rows)
        m = hi - lo
        mask = predicate_mask(lineitem, "l_shipdate", "le", sc.DATE_1998_09_02, lo, hi)
        q = int(mask.sum())

        work = self._new_work()
        self._interp_work(work, m, n_operators=4, term_evals=m * 2 + q * 14)
        columns = [
            "l_shipdate", "l_returnflag", "l_linestatus", "l_quantity",
            "l_extendedprice", "l_discount", "l_tax",
        ]
        work.record_sequential_read(self._scan_bytes(db, "lineitem", columns, lo, hi))
        work.record_branch_outcomes("shipdate filter", mask)
        # The interpreters model *cost*; values come from the reference
        # implementation in the finisher, so no aggregate here can move
        # into the code domain -- recorded honestly in the decision.
        decision = tuple(
            (slot, column, "decoded", "finisher-reference")
            for slot, column in (
                ("sum_qty", "l_quantity"),
                ("sum_base_price", "l_extendedprice"),
                ("sum_disc_price", None),
                ("sum_charge", None),
            )
        )
        state = {"qualifying": q, AGG_STATE_KEY: decision}
        return self._conclude("q1", db, state, work, lo, hi, row_range)

    def _finish_q1(self, db: Database, merged):
        from repro.tpch.queries import q1_reference

        groups = q1_reference(db)
        return self._result("q1", groups, merged, {"groups": len(groups)})

    def run_q6(self, db: Database, predicated: bool = False, row_range=None):
        from repro.tpch.queries import q6_predicates

        lineitem = db.table("lineitem")
        lo, hi = resolve_range(row_range, lineitem.n_rows)
        m = hi - lo
        predicates = [(name, mask[lo:hi]) for name, mask in q6_predicates(db)]

        work = self._new_work()
        alive = np.ones(m, dtype=bool)
        term_evals = 0.0
        for name, mask in predicates:
            candidates = int(alive.sum())
            term_evals += candidates * 2
            if not predicated:
                work.record_branch_outcomes(f"{name}", mask[alive])
            alive &= mask
        if predicated:
            term_evals = m * 2 * len(predicates)
        q = int(alive.sum())
        self._interp_work(work, m, n_operators=4, term_evals=term_evals + q * 3)
        columns = ["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"]
        work.record_sequential_read(self._scan_bytes(db, "lineitem", columns, lo, hi))
        return self._conclude(
            "q6", db, {"qualifying": q}, work, lo, hi, row_range, predicated=predicated
        )

    def _finish_q6(self, db: Database, merged, predicated: bool = False):
        from repro.tpch.queries import q6_reference

        n = merged.tuples
        details = {"selectivity": merged.state["qualifying"] / n if n else 0.0}
        return self._result("q6", q6_reference(db), merged, details, predicated=predicated)

    def _q9_green_keys(self, db: Database) -> np.ndarray:
        def build():
            part = db.table("part")
            return part["p_partkey"][part["p_namecat"] == sc.GREEN_CATEGORY]

        return shared_structure(db, "q9-green-keys", build)

    def run_q9(self, db: Database, row_range=None):
        lineitem = db.table("lineitem")
        supplier = db.table("supplier")
        partsupp = db.table("partsupp")
        orders = db.table("orders")
        lo, hi = resolve_range(row_range, lineitem.n_rows)
        m = hi - lo
        lead = lo == 0

        green = np.isin(lineitem["l_partkey"][lo:hi], self._q9_green_keys(db))
        q = int(green.sum())
        work = self._new_work()
        # Six-table plan: scans + four hash joins + aggregation.  The
        # build-side pipelines are global work (lead morsel only).
        self._interp_work(work, m, n_operators=5, term_evals=m * 2 + q * 16)
        n_build = (partsupp.n_rows + supplier.n_rows + orders.n_rows) if lead else 0
        self._interp_work(work, n_build, n_operators=2, term_evals=n_build)
        columns = [
            "l_partkey", "l_suppkey", "l_orderkey",
            "l_extendedprice", "l_discount", "l_quantity",
        ]
        work.record_sequential_read(self._scan_bytes(db, "lineitem", columns, lo, hi))
        work.record_sequential_read(
            self._full_scan_bytes(db, "partsupp", ["ps_partkey", "ps_suppkey", "ps_supplycost"])
            if lead else 0.0
        )
        work.record_sequential_read(
            self._full_scan_bytes(db, "orders", ["o_orderkey", "o_orderdate"])
            if lead else 0.0
        )
        ht_bytes = self.HT_SIZE_FACTOR * 24 * (partsupp.n_rows + orders.n_rows)
        work.record_random("hash probe heads", m + 3.0 * q, ht_bytes)
        work.record_branch_outcomes("green part probe", green)
        return self._conclude("q9", db, {"green": q}, work, lo, hi, row_range)

    def _finish_q9(self, db: Database, merged):
        from repro.tpch.queries import q9_reference

        n = merged.tuples
        details = {"green_fraction": merged.state["green"] / n if n else 0.0}
        return self._result("q9", q9_reference(db), merged, details)

    def run_q18(self, db: Database, row_range=None):
        lineitem = db.table("lineitem")
        lo, hi = resolve_range(row_range, lineitem.n_rows)
        m = hi - lo
        lead = lo == 0

        table = self._q18_group_table(db, target_load=0.25)
        work = self._new_work()
        self._interp_work(work, m, n_operators=4, term_evals=m * 4)
        work.record_sequential_read(
            self._scan_bytes(db, "lineitem", ["l_orderkey", "l_quantity"], lo, hi)
        )
        work.record_sequential_read(
            self._full_scan_bytes(db, "orders", ["o_orderkey", "o_custkey"])
            if lead else 0.0
        )
        ws = table.working_set_bytes * self.HT_SIZE_FACTOR
        work.record_random("group table update", m, ws)
        work.record_branch_stream("group collision", m, table.collision_fraction())
        return self._conclude("q18", db, {}, work, lo, hi, row_range)

    def _finish_q18(self, db: Database, merged):
        from repro.tpch.queries import q18_reference

        value = q18_reference(db)
        table = self._q18_group_table(db, target_load=0.25)
        details = {"groups": table.n_groups, "winners": len(value)}
        return self._result("q18", value, merged, details)


class RowStoreEngine(InterpreterEngine):
    """"DBMS R": traditional commercial row store.

    Tuple-at-a-time Volcano interpretation over slotted row pages: a
    scan drags *entire rows* through the memory hierarchy and every
    tuple pays the full dispatch/interpretation tax.
    """

    name = "DBMS R"
    code_footprint_bytes = 768 * 1024
    BLOCK_SIZE = 1.0
    NEXT_COST = 250.0
    EXPR_COST = 150.0
    STATE_ACCESSES = 2.0
    CHAIN_PER_OP = 4.0
    EFFECTIVE_ILP = 2.5

    def _scan_bytes(self, db: Database, table: str, columns, lo: int, hi: int) -> float:
        # Full rows, page-granular; pages attribute to the morsel
        # containing their first row (see morsel.row_scan_bytes).
        return row_scan_bytes(db, table, lo, hi)

    def morsel_position_signature(self, db, method, kwargs, lo, hi):
        # Page-granular scan bytes depend on where [lo, hi) falls in the
        # page grid, not just on its length; the byte count itself is
        # the exact signature.  All prunable methods scan lineitem.
        return row_scan_bytes(db, "lineitem", lo, hi)


class ColumnStoreEngine(InterpreterEngine):
    """"DBMS C": the column-store extension of DBMS R.

    Block-at-a-time interpretation over single columns: the ``next()``
    tax is amortised over ~1000 values and scans touch only the needed
    columns, but each value still pays per-value interpretation
    (type/NULL dispatch), keeping the instruction footprint an order of
    magnitude above the high-performance engines.
    """

    name = "DBMS C"
    code_footprint_bytes = 640 * 1024
    BLOCK_SIZE = 1024.0
    NEXT_COST = 250.0
    EXPR_COST = 35.0
    STATE_ACCESSES = 16.0  # per block: position lists, block headers
    CHAIN_PER_OP = 256.0  # per block
    DISPATCH_BRANCHES = 16.0  # per block
    DISPATCH_MISPREDICT = 0.08
    EFFECTIVE_ILP = 3.9

    def _scan_bytes(self, db: Database, table: str, columns, lo: int, hi: int) -> float:
        return float(
            bytes_for_rows(db.table(table), dict.fromkeys(columns), lo, hi)
        )
