"""Typer: the compiled, data-centric execution model (HyPer-style).

Typer compiles each query into fused per-tuple loops: operators are
inlined into a single pipeline, predicates of a conjunction are
evaluated together (so the dominant branch sees the *combined*
selectivity, Section 4), and no intermediate results are materialised.
The hot code of one query is a few kilobytes -- far below the L1I.

Execution here is numpy-vectorised for speed, but the recorded work is
that of the compiled per-tuple loop: per-tuple instruction counts,
operation mix, branch outcome streams (measured from the actual data)
and the exact bytes/accesses the fused pipeline touches.

Every ``run_*`` method accepts ``row_range=(lo, hi)`` and then executes
only that morsel of the partitioned table (see
:mod:`repro.engines.morsel`): per-morsel value state is carried exactly
(:class:`~repro.core.exactsum.ExactSum`, integer counts), every
branch/random/sparse stream is recorded unconditionally in a fixed
order (zero-count placeholders keep partial profiles congruent), and
the single-shot path is *defined* as one full-range morsel passed to
the same ``_finish_*`` merge finisher the parallel executor uses -- so
merged morsel runs are bit-identical to single-shot runs by
construction.
"""

from __future__ import annotations

import numpy as np

from repro.core.exactsum import ExactSum
from repro.engines.base import (
    Engine,
    JOIN_SPECS,
    MergedPartials,
    OperatorWork,
    QueryResult,
    projection_columns,
    resolve_selection_cached,
)
from repro.engines.hashtable import ChainedHashTable, GroupByHashTable
from repro.engines.morsel import (
    bytes_for_rows,
    gather_lines,
    key_table,
    resolve_range,
    shared_structure,
)
from repro.engines.scan import (
    AGG_STATE_KEY,
    between_mask,
    combined_key,
    decision_details,
    exact_sum_column,
    predicate_mask,
    q1_encoded_aggregation,
    record_encoded_agg,
)
from repro.storage import Database
from repro.tpch import schema as sc


class TyperEngine(Engine):
    """Compiled query engine model."""

    name = "Typer"
    code_footprint_bytes = 24 * 1024
    supports_simd = False

    #: Amortised loop-control instructions per tuple (inc/cmp/branch,
    #: partially hidden by compiler unrolling).
    LOOP_INSTRS = 4.0
    #: Instructions per hash computation (multiply + shift + mask).
    HASH_INSTRS = 3.0
    #: Instructions per hash-table entry visit (load key + compare).
    VISIT_INSTRS = 2.0

    # ------------------------------------------------------------------
    # Projection (Section 3)
    # ------------------------------------------------------------------
    def run_projection(
        self, db: Database, degree: int, simd: bool = False, row_range=None
    ) -> QueryResult:
        self._check_simd(simd)
        columns = projection_columns(degree)
        lineitem = db.table("lineitem")
        lo, hi = resolve_range(row_range, lineitem.n_rows)
        m = hi - lo

        if degree == 1:
            # Single column: ``0.0 + v`` carries the same ExactSum units
            # as ``v`` (both signed zeros convert to zero units), so the
            # sum may come straight from the storage codec.
            total_sum, mode, why = exact_sum_column(lineitem, columns[0], lo, hi)
            decision = (("sum", columns[0], mode, why),)
        else:
            # Higher degrees round per row inside ``a + b + ...``; no
            # per-column code rebase reproduces that, so decode.
            total = np.zeros(m)
            for column in columns:
                total = total + lineitem[column][lo:hi]
            total_sum = ExactSum.of_array(total)
            decision = tuple(
                ("sum", column, "decoded", "per-row-rounding")
                for column in columns
            )

        work = self._new_work()
        # Fused loop: degree loads, degree FP adds (including the
        # accumulator), amortised loop control.
        work.record_work(
            instructions=m * (self.LOOP_INSTRS + 2.0 * degree),
            alu=m * degree,
            loads=m * degree,
            chain=m,  # serial accumulator update
        )
        work.record_sequential_read(bytes_for_rows(lineitem, columns, lo, hi))
        state = {"sum": total_sum, AGG_STATE_KEY: decision}
        label = f"projection-p{degree}"
        if row_range is not None:
            return self._partial_result(label, state, m, work, (lo, hi))
        return self._finish_projection(
            db, MergedPartials(state, work, m), degree=degree, simd=simd
        )

    def _finish_projection(
        self, db: Database, merged: MergedPartials, degree: int, simd: bool = False
    ) -> QueryResult:
        decision = merged.state.pop(AGG_STATE_KEY, None)
        work = self._finalize_profile(merged.work)
        details = {}
        if decision:
            record_encoded_agg(decision)
            details["encoded_agg"] = decision_details(decision)
        return QueryResult(
            f"projection-p{degree}",
            merged.state["sum"].total(),
            merged.tuples,
            work,
            details,
        )

    # ------------------------------------------------------------------
    # Selection (Sections 4 and 7)
    # ------------------------------------------------------------------
    def run_selection(
        self,
        db: Database,
        selectivity: float | None,
        predicated: bool = False,
        simd: bool = False,
        thresholds=None,
        row_range=None,
    ) -> QueryResult:
        self._check_simd(simd)
        selectivity, thresholds = resolve_selection_cached(db, selectivity, thresholds)
        lineitem = db.table("lineitem")
        lo, hi = resolve_range(row_range, lineitem.n_rows)
        m = hi - lo
        proj_cols = projection_columns(4)

        masks = [
            (column, predicate_mask(lineitem, column, "le", threshold, lo, hi))
            for column, threshold in thresholds.items()
        ]
        combined = masks[0][1] & masks[1][1] & masks[2][1]
        qualifying = np.flatnonzero(combined)
        q = len(qualifying)

        projected = np.zeros(q)
        for column in proj_cols:
            projected = projected + lineitem[column][lo:hi][qualifying]

        work = self._new_work()
        pred_bytes = bytes_for_rows(lineitem, [name for name, _ in masks], lo, hi)
        proj_bytes = bytes_for_rows(lineitem, proj_cols, lo, hi)
        label = f"selection-{int(selectivity * 100)}%" + (
            "-predicated" if predicated else ""
        )
        if predicated:
            # Branch-free: all predicates and the whole projection are
            # computed for every tuple; the predicate mask becomes a
            # multiplicand (Section 7: pays off at 50/90%, not at 10%).
            work.record_work(
                instructions=m * (self.LOOP_INSTRS + 3 * 3 + 2 + 4 * 2 + 2),
                alu=m * (3 + 2 + 4 + 2),
                loads=m * (3 + 4),
                chain=m,
            )
            work.record_sequential_read(pred_bytes + proj_bytes)
        else:
            # Branched: predicates are evaluated together branch-free,
            # one branch on the combined outcome guards the projection.
            work.record_work(
                instructions=m * (self.LOOP_INSTRS + 3 * 2 + 2 + 1)
                + q * (4 * 2),
                alu=m * (3 + 2) + q * 4,
                loads=m * 3 + q * 4,
                chain=q,
            )
            work.record_sequential_read(pred_bytes)
            work.record_branch_outcomes("combined predicate", combined)
            touched, total_lines = gather_lines(qualifying + lo, lo, hi)
            work.record_gather("projection gather", proj_bytes, touched, total_lines)
        state = {"sum": ExactSum.of_array(projected), "qualifying": q}
        if row_range is not None:
            return self._partial_result(label, state, m, work, (lo, hi))
        return self._finish_selection(
            db,
            MergedPartials(state, work, m),
            selectivity=selectivity,
            predicated=predicated,
            simd=simd,
            thresholds=thresholds,
        )

    def _finish_selection(
        self,
        db: Database,
        merged: MergedPartials,
        selectivity: float | None,
        predicated: bool = False,
        simd: bool = False,
        thresholds=None,
    ) -> QueryResult:
        selectivity, _ = resolve_selection_cached(db, selectivity, thresholds)
        n = merged.tuples
        q = merged.state["qualifying"]
        work = self._finalize_profile(merged.work)
        label = f"selection-{int(selectivity * 100)}%" + (
            "-predicated" if predicated else ""
        )
        details = {
            "selectivity": selectivity,
            "combined_selectivity": q / n if n else 0.0,
            "predicated": predicated,
        }
        return QueryResult(label, merged.state["sum"].total(), n, work, details)

    # ------------------------------------------------------------------
    # Join (Section 5)
    # ------------------------------------------------------------------
    def run_join(
        self, db: Database, size: str, simd: bool = False, row_range=None
    ) -> QueryResult:
        self._check_simd(simd)
        if size not in JOIN_SPECS:
            raise ValueError(f"unknown join size {size!r}")
        spec = JOIN_SPECS[size]
        probe = db.table(spec.probe_table)
        lo, hi = resolve_range(row_range, probe.n_rows)
        m = hi - lo
        lead = lo == 0

        table = key_table(db, spec.build_table, spec.build_key)
        result = table.probe(probe[spec.probe_key][lo:hi])
        matched = np.flatnonzero(result.found)
        matches = len(matched)

        projected = np.zeros(matches)
        for column in spec.sum_columns:
            projected = projected + probe[column][lo:hi][matched]

        operators = OperatorWork(self)
        self._record_build(
            operators.operator("hash build"),
            table,
            db.table(spec.build_table).bytes_for([spec.build_key]),
            lead=lead,
        )
        probe_work = operators.operator("hash probe")
        self._record_probe(probe_work, table, result, m)
        probe_work.record_work(
            instructions=m * (self.LOOP_INSTRS + 1),
            loads=m,
        )
        probe_work.record_sequential_read(
            bytes_for_rows(probe, [spec.probe_key], lo, hi)
        )
        # Aggregation over the matches: the summed columns.
        degree = len(spec.sum_columns)
        aggregate_work = operators.operator("aggregate")
        aggregate_work.record_work(
            instructions=matches * 2 * degree,
            alu=matches * degree,
            loads=matches * degree,
            chain=matches,
        )
        aggregate_work.record_sequential_read(
            bytes_for_rows(probe, spec.sum_columns, lo, hi)
        )
        work = operators.total()
        state = {"sum": ExactSum.of_array(projected), "found": matches}
        if row_range is not None:
            return self._partial_result(
                f"join-{size}", state, m, work, (lo, hi), operators.profiles
            )
        return self._finish_join(
            db,
            MergedPartials(state, work, m, operators.profiles),
            size=size,
            simd=simd,
        )

    def _finish_join(
        self, db: Database, merged: MergedPartials, size: str, simd: bool = False
    ) -> QueryResult:
        spec = JOIN_SPECS[size]
        table = key_table(db, spec.build_table, spec.build_key)
        n_probe = merged.tuples
        work = self._finalize_profile(merged.work)
        operators = {
            name: self._finalize_profile(profile)
            for name, profile in merged.operators.items()
        }
        found = merged.state["found"]
        details = {
            "join_size": size,
            "build_rows": db.table(spec.build_table).n_rows,
            "probe_rows": n_probe,
            "hit_fraction": found / n_probe if n_probe else 0.0,
            "chain_stats": table.chain_stats(),
            "hash_table_bytes": table.working_set_bytes,
            "operators": operators,
        }
        return QueryResult(
            f"join-{size}", merged.state["sum"].total(), n_probe, work, details
        )

    def _record_build(self, work, table: ChainedHashTable, key_bytes: float, lead: bool = True) -> None:
        """Hash-table build: hash each key, scatter-store the entry.

        Builds are global work: the lead morsel (``lo == 0``) records
        the full build; other morsels record a congruent zero-count
        placeholder so partial profiles merge positionally."""
        n = table.n_keys if lead else 0
        work.record_work(
            instructions=n * (self.LOOP_INSTRS + self.HASH_INSTRS + 3),
            alu=n,
            loads=n,
            stores=n * 2,
            hash_ops=n,
        )
        work.record_sequential_read(key_bytes if lead else 0.0)
        work.record_random(
            "hash build scatter", n, table.working_set_bytes, dependent=False
        )

    def _record_probe(self, work, table: ChainedHashTable, result, n_probe: int) -> None:
        """Hash-table probe: hash, head load, chain walk, verify."""
        work.record_work(
            instructions=n_probe * (self.HASH_INSTRS + 1)
            + result.comparisons * self.VISIT_INSTRS,
            alu=n_probe,
            loads=n_probe + result.comparisons,
            hash_ops=n_probe,
        )
        work.record_random(
            "hash probe heads", n_probe, table.working_set_bytes, dependent=False
        )
        work.record_random(
            "hash chain walk",
            result.extra_walk,
            table.working_set_bytes,
            dependent=True,
        )
        work.record_branch_outcomes("probe hit", result.found)
        walk_fraction = (
            result.extra_walk / result.comparisons if result.comparisons else 0.0
        )
        work.record_branch_stream("chain continue", result.comparisons, walk_fraction)

    # ------------------------------------------------------------------
    # Group by (Section 6 discussion)
    # ------------------------------------------------------------------
    def _groupby_table(self, db: Database) -> GroupByHashTable:
        def build():
            lineitem = db.table("lineitem")
            composite = lineitem["l_partkey"] * 4 + lineitem["l_returnflag"]
            return GroupByHashTable(composite)

        return shared_structure(db, "groupby-micro", build)

    def run_groupby(self, db: Database, row_range=None) -> QueryResult:
        lineitem = db.table("lineitem")
        lo, hi = resolve_range(row_range, lineitem.n_rows)
        m = hi - lo
        table = self._groupby_table(db)

        work = self._new_work()
        self._record_groupby_updates(
            work,
            table,
            bytes_for_rows(
                lineitem, ["l_partkey", "l_returnflag", "l_extendedprice"], lo, hi
            ),
            lo,
            hi,
        )
        total, mode, why = exact_sum_column(lineitem, "l_extendedprice", lo, hi)
        state = {
            "sum": total,
            AGG_STATE_KEY: (("sum", "l_extendedprice", mode, why),),
        }
        if row_range is not None:
            return self._partial_result("groupby-micro", state, m, work, (lo, hi))
        return self._finish_groupby(db, MergedPartials(state, work, m))

    def _finish_groupby(self, db: Database, merged: MergedPartials) -> QueryResult:
        table = self._groupby_table(db)
        decision = merged.state.pop(AGG_STATE_KEY, None)
        work = self._finalize_profile(merged.work)
        details = {
            "groups": table.n_groups,
            "chain_stats": table.chain_stats(),
            "collision_fraction": table.collision_fraction(),
        }
        if decision:
            record_encoded_agg(decision)
            details["encoded_agg"] = decision_details(decision)
        return QueryResult(
            "groupby-micro", merged.state["sum"].total(), merged.tuples, work, details
        )

    def _record_groupby_updates(
        self, work, table: GroupByHashTable, col_bytes: float, lo: int, hi: int
    ) -> None:
        depths = table._depth[table.group_ids[lo:hi]]
        n = hi - lo
        comparisons = int(depths.sum())
        collisions = int((depths > 1).sum())
        work.record_work(
            instructions=n * (self.LOOP_INSTRS + self.HASH_INSTRS + 3)
            + comparisons * self.VISIT_INSTRS,
            alu=n * 2,
            loads=n * 2 + comparisons,
            stores=n,
            hash_ops=n,
            chain=n,
        )
        work.record_sequential_read(col_bytes)
        work.record_random(
            "group table update", n, table.working_set_bytes, dependent=False
        )
        work.record_random(
            "group chain walk", comparisons - n, table.working_set_bytes, dependent=True
        )
        work.record_branch_stream(
            "group collision", n, collisions / n if n else 0.0
        )

    # ------------------------------------------------------------------
    # TPC-H (Section 6)
    # ------------------------------------------------------------------
    def run_q1(self, db: Database, row_range=None) -> QueryResult:
        lineitem = db.table("lineitem")
        lo, hi = resolve_range(row_range, lineitem.n_rows)
        m = hi - lo
        mask = predicate_mask(lineitem, "l_shipdate", "le", sc.DATE_1998_09_02, lo, hi)
        q = int(mask.sum())

        encoded_payload, agg_decision = q1_encoded_aggregation(lineitem, lo, hi, mask)
        price = lineitem["l_extendedprice"][lo:hi][mask]
        discount = lineitem["l_discount"][lo:hi][mask]
        tax = lineitem["l_tax"][lo:hi][mask]
        disc_price = price * (1.0 - discount)
        charge = disc_price * (1.0 + tax)
        if encoded_payload is not None:
            # One combined bincount over (flag x status x quantity-code)
            # cells delivered both the exact quantity sum and the set of
            # observed group keys; the decoded quantity/key columns are
            # never materialised.
            sum_qty, keys = encoded_payload
        else:
            sum_qty = ExactSum.of_array(lineitem["l_quantity"][lo:hi][mask])
            group_key = combined_key(
                lineitem, "l_returnflag", "l_linestatus", 2, lo, hi, take=mask
            )
            keys = set(np.unique(group_key).tolist())

        columns = (
            "l_shipdate", "l_returnflag", "l_linestatus", "l_quantity",
            "l_extendedprice", "l_discount", "l_tax",
        )
        work = self._new_work()
        # Fused scan+filter+aggregate: the eight aggregate updates and
        # the derived expressions dominate the per-tuple arithmetic.
        work.record_work(
            instructions=m * (self.LOOP_INSTRS + 2) + q * (6 + 4 + self.HASH_INSTRS + 8 * 3),
            alu=m + q * (4 + 2 + 8),
            loads=m + q * (6 + 8),
            stores=q * 8,
            hash_ops=q,
            chain=q * 3.0,  # partially serialised aggregate chains (4 groups)
        )
        work.record_sequential_read(bytes_for_rows(lineitem, columns, lo, hi))
        work.record_branch_outcomes("shipdate filter", mask)
        # The 4-group aggregation table lives in L1: no random pattern.
        state = {
            "sum_qty": sum_qty,
            "sum_base_price": ExactSum.of_array(price),
            "sum_disc_price": ExactSum.of_array(disc_price),
            "sum_charge": ExactSum.of_array(charge),
            "keys": keys,
            AGG_STATE_KEY: agg_decision,
        }
        if row_range is not None:
            return self._partial_result("Q1", state, m, work, (lo, hi))
        return self._finish_q1(db, MergedPartials(state, work, m))

    def _finish_q1(self, db: Database, merged: MergedPartials) -> QueryResult:
        decision = merged.state.pop(AGG_STATE_KEY, None)
        work = self._finalize_profile(merged.work)
        groups = len(merged.state["keys"])
        value = {
            "sum_qty": merged.state["sum_qty"].total(),
            "sum_base_price": merged.state["sum_base_price"].total(),
            "sum_disc_price": merged.state["sum_disc_price"].total(),
            "sum_charge": merged.state["sum_charge"].total(),
            "groups": groups,
        }
        details = {"groups": groups}
        if decision:
            record_encoded_agg(decision)
            details["encoded_agg"] = decision_details(decision)
        return QueryResult("Q1", value, merged.tuples, work, details)

    def run_q6(self, db: Database, predicated: bool = False, row_range=None) -> QueryResult:
        lineitem = db.table("lineitem")
        lo, hi = resolve_range(row_range, lineitem.n_rows)
        m = hi - lo
        date_pass = between_mask(
            lineitem, "l_shipdate", sc.DATE_1994_01_01, sc.DATE_1995_01_01,
            lo, hi, high_op="lt",
        )
        disc_pass = between_mask(lineitem, "l_discount", 0.05, 0.07, lo, hi)
        qty_pass = predicate_mask(lineitem, "l_quantity", "lt", 24.0, lo, hi)
        combined = date_pass & disc_pass & qty_pass
        qualifying = np.flatnonzero(combined)
        q = len(qualifying)
        amounts = (
            lineitem["l_extendedprice"][lo:hi][qualifying]
            * lineitem["l_discount"][lo:hi][qualifying]
        )

        pred_cols = ("l_shipdate", "l_discount", "l_quantity")
        work = self._new_work()
        work.record_sequential_read(bytes_for_rows(lineitem, pred_cols, lo, hi))
        price_bytes = bytes_for_rows(lineitem, ["l_extendedprice"], lo, hi)
        if predicated:
            work.record_work(
                instructions=m * (self.LOOP_INSTRS + 5 + 4 + 3),
                alu=m * (5 + 4 + 2),
                loads=m * 4,
                chain=m,
            )
            work.record_sequential_read(price_bytes)
        else:
            # The compiled conjunction short-circuits per predicate
            # *column* group: each BETWEEN pair is evaluated branch-free
            # and guarded by one branch, so the predictor sees three
            # conditional streams (Figure 16 shows visible branch
            # stalls for Typer on Q6).
            alive = np.ones(m, dtype=bool)
            for name, mask in (
                ("shipdate range", date_pass),
                ("discount range", disc_pass),
                ("quantity bound", qty_pass),
            ):
                work.record_branch_outcomes(name, mask[alive])
                alive &= mask
            c1 = int(date_pass.sum())
            c12 = int((date_pass & disc_pass).sum())
            work.record_work(
                instructions=m * (self.LOOP_INSTRS + 3 + 1)
                + c1 * 3
                + c12 * 2
                + q * 4,
                alu=m * 3 + c1 * 2 + c12 + q * 2,
                loads=m + c1 + c12 + q,
                chain=q,
            )
            touched, total_lines = gather_lines(qualifying + lo, lo, hi)
            work.record_gather("price gather", price_bytes, touched, total_lines)
        state = {"sum": ExactSum.of_array(amounts), "qualifying": q}
        label = "Q6-predicated" if predicated else "Q6"
        if row_range is not None:
            return self._partial_result(label, state, m, work, (lo, hi))
        return self._finish_q6(db, MergedPartials(state, work, m), predicated=predicated)

    def _finish_q6(
        self, db: Database, merged: MergedPartials, predicated: bool = False
    ) -> QueryResult:
        work = self._finalize_profile(merged.work)
        n = merged.tuples
        q = merged.state["qualifying"]
        label = "Q6-predicated" if predicated else "Q6"
        details = {"selectivity": q / n if n else 0.0, "predicated": predicated}
        return QueryResult(label, merged.state["sum"].total(), n, work, details)

    def _q9_structures(self, db: Database) -> dict:
        def build():
            part = db.table("part")
            partsupp = db.table("partsupp")
            n_supp = db.table("supplier").n_rows
            green_keys = part["p_partkey"][part["p_namecat"] == sc.GREEN_CATEGORY]
            ps_composite = partsupp["ps_partkey"] * (n_supp + 1) + partsupp["ps_suppkey"]
            return {
                "n_supp": n_supp,
                "green_keys": green_keys,
                "green_table": ChainedHashTable(green_keys),
                "ps_table": ChainedHashTable(ps_composite),
            }

        return shared_structure(db, "q9-structs", build)

    def run_q9(self, db: Database, row_range=None) -> QueryResult:
        lineitem = db.table("lineitem")
        partsupp = db.table("partsupp")
        supplier = db.table("supplier")
        orders = db.table("orders")
        lo, hi = resolve_range(row_range, lineitem.n_rows)
        m = hi - lo
        lead = lo == 0
        structs = self._q9_structures(db)
        n_supp = structs["n_supp"]
        green_table = structs["green_table"]
        ps_table = structs["ps_table"]
        supp_table = key_table(db, "supplier", "s_suppkey")
        orders_table = key_table(db, "orders", "o_orderkey")

        partkey = lineitem["l_partkey"][lo:hi]
        green_probe = green_table.probe(partkey)
        green = np.flatnonzero(green_probe.found)
        q = len(green)

        suppkey = lineitem["l_suppkey"][lo:hi][green]
        ps_probe = ps_table.probe(partkey[green] * (n_supp + 1) + suppkey)
        supp_probe = supp_table.probe(suppkey)
        orders_probe = orders_table.probe(lineitem["l_orderkey"][lo:hi][green])

        keep = ps_probe.found & supp_probe.found & orders_probe.found
        kept = green[keep]
        survivors = len(kept)
        supplycost = partsupp["ps_supplycost"][ps_probe.match_index[keep]]
        price = lineitem["l_extendedprice"][lo:hi][kept]
        disc = lineitem["l_discount"][lo:hi][kept]
        qty = lineitem["l_quantity"][lo:hi][kept]
        amount = price * (1.0 - disc) - supplycost * qty

        operators = OperatorWork(self)
        scan_work = operators.operator("scan lineitem")
        scan_work.record_sequential_read(
            bytes_for_rows(
                lineitem,
                ("l_partkey", "l_suppkey", "l_orderkey", "l_extendedprice",
                 "l_discount", "l_quantity"),
                lo,
                hi,
            )
        )
        scan_work.record_work(instructions=m * self.LOOP_INSTRS)
        build_work = operators.operator("hash builds")
        for table, key_bytes in (
            (green_table, structs["green_keys"].nbytes),
            (ps_table, partsupp.bytes_for(("ps_partkey", "ps_suppkey", "ps_supplycost"))),
            (supp_table, supplier.bytes_for(("s_suppkey", "s_nationkey"))),
            (orders_table, orders.bytes_for(("o_orderkey", "o_orderdate"))),
        ):
            self._record_build(build_work, table, key_bytes, lead=lead)
        self._record_probe(operators.operator("probe part (green)"), green_table, green_probe, m)
        self._record_probe(operators.operator("probe partsupp"), ps_table, ps_probe, q)
        self._record_probe(operators.operator("probe supplier"), supp_table, supp_probe, q)
        self._record_probe(operators.operator("probe orders"), orders_table, orders_probe, q)
        # Pipeline arithmetic on survivors + group aggregation.
        aggregate_work = operators.operator("aggregate")
        aggregate_work.record_work(
            instructions=survivors * (6 + self.HASH_INSTRS + 4),
            alu=survivors * 6,
            loads=survivors * 6,
            stores=survivors,
            hash_ops=survivors,
            chain=survivors,
        )
        work = operators.total()
        state = {
            "sum": ExactSum.of_array(amount),
            "green": q,
            "survivors": survivors,
        }
        if row_range is not None:
            return self._partial_result(
                "Q9", state, m, work, (lo, hi), operators.profiles
            )
        return self._finish_q9(db, MergedPartials(state, work, m, operators.profiles))

    def _finish_q9(self, db: Database, merged: MergedPartials) -> QueryResult:
        n = merged.tuples
        work = self._finalize_profile(merged.work)
        operators = {
            name: self._finalize_profile(profile)
            for name, profile in merged.operators.items()
        }
        details = {
            "green_fraction": merged.state["green"] / n if n else 0.0,
            "survivors": merged.state["survivors"],
            "orders_ht_bytes": key_table(db, "orders", "o_orderkey").working_set_bytes,
            "operators": operators,
        }
        return QueryResult("Q9", merged.state["sum"].total(), n, work, details)

    def _q18_group_table(self, db: Database) -> GroupByHashTable:
        return shared_structure(
            db,
            ("q18-groups", 0.4),
            lambda: GroupByHashTable(db.table("lineitem")["l_orderkey"]),
        )

    def run_q18(self, db: Database, row_range=None) -> QueryResult:
        lineitem = db.table("lineitem")
        lo, hi = resolve_range(row_range, lineitem.n_rows)
        m = hi - lo
        group_table = self._q18_group_table(db)

        # Partial per-group quantity sums: l_quantity is integer-valued,
        # so the bincount partials add exactly across morsels.
        qty_sums = np.bincount(
            group_table.group_ids[lo:hi],
            weights=lineitem["l_quantity"][lo:hi],
            minlength=group_table.n_groups,
        )

        work = self._new_work()
        work.record_sequential_read(
            bytes_for_rows(lineitem, ("l_orderkey", "l_quantity"), lo, hi)
        )
        self._record_groupby_updates(work, group_table, 0.0, lo, hi)
        state = {"qty_sums": qty_sums}
        if row_range is not None:
            return self._partial_result("Q18", state, m, work, (lo, hi))
        return self._finish_q18(db, MergedPartials(state, work, m))

    def _finish_q18(self, db: Database, merged: MergedPartials) -> QueryResult:
        orders = db.table("orders")
        customer = db.table("customer")
        group_table = self._q18_group_table(db)
        work = merged.work

        qty_sums = merged.state["qty_sums"]
        big = qty_sums > 300.0
        winner_orderkeys = group_table.distinct_keys[big]
        winners = len(winner_orderkeys)

        orders_table = key_table(db, "orders", "o_orderkey")
        winner_probe = orders_table.probe(winner_orderkeys)
        custkeys = orders["o_custkey"][winner_probe.match_index[winner_probe.found]]
        cust_table = key_table(db, "customer", "c_custkey")
        cust_probe = cust_table.probe(custkeys)
        value = {
            "winners": winners,
            "sum_winner_qty": float(qty_sums[big].sum()),
            "matched_customers": int(cust_probe.found.sum()),
        }

        # HAVING branch over all groups (rarely taken).
        work.record_branch_stream(
            "having sum(qty) > 300",
            group_table.n_groups,
            winners / group_table.n_groups if group_table.n_groups else 0.0,
        )
        self._record_build(work, orders_table, orders.bytes_for(("o_orderkey", "o_custkey")))
        self._record_probe(work, orders_table, winner_probe, winners)
        self._record_build(work, cust_table, customer.bytes_for(("c_custkey",)))
        self._record_probe(work, cust_table, cust_probe, len(custkeys))
        work = self._finalize_profile(work)
        details = {
            "groups": group_table.n_groups,
            "group_table_bytes": group_table.working_set_bytes,
            "chain_stats": group_table.chain_stats(),
        }
        return QueryResult("Q18", value, merged.tuples, work, details)
