"""Tectorwise: the vectorized execution model (VectorWise-style).

Tectorwise interprets a query plan one *vector* (~1000 values) at a
time: each operator is a sequence of simple primitives that read input
vectors and materialise output vectors.  Three consequences drive its
micro-architecture (Sections 3-8):

- intermediates are materialised into cache-resident vectors, which
  costs instructions and L1/L2 traffic and cuts DRAM pressure;
- predicates are evaluated one primitive at a time, so the branch
  predictor faces each predicate's *individual* selectivity;
- primitives are trivially data-parallel, so AVX-512 SIMD versions
  exist for the projection/selection/probe kernels (Section 8).

Execution is numpy-vectorised; the recorded work is that of the
vector-at-a-time interpreter (per-element primitive costs, vector
materialisation traffic, measured branch streams and probe accesses).

Morsel mode (``row_range=(lo, hi)``, see :mod:`repro.engines.morsel`)
follows the engine-wide protocol: per-morsel recordings are dyadic and
positionally congruent (global hash builds are recorded by the lead
morsel, zero-count placeholders elsewhere), the non-dyadic SIMD
per-element pass cost (0.8 instructions) is deferred through
:attr:`PENDING_RATES`, and single-shot runs go through the same
``_finish_*`` merge finishers as the parallel executor.
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
    combined_key,
    decision_details,
    exact_sum_column,
    predicate_mask,
    q1_encoded_aggregation,
    record_encoded_agg,
)
from repro.storage import Database
from repro.tpch import schema as sc


class TectorwiseEngine(Engine):
    """Vectorized query engine model."""

    name = "Tectorwise"
    code_footprint_bytes = 48 * 1024
    supports_simd = True

    #: Values per vector (the classic VectorWise vector size).
    VECTOR_SIZE = 1024
    #: Scalar instructions per element of one primitive pass (load,
    #: compute, store, selection-vector indexing, amortised dispatch).
    PASS_INSTRS = 3.0
    #: Scalar instructions per element of the final reduction pass.
    REDUCE_INSTRS = 6.0
    #: AVX-512 lanes for the 8-byte types used here.
    SIMD_LANES = 8
    #: Instructions per element of a SIMD primitive pass.
    SIMD_PASS_INSTRS = 0.8
    #: Instructions per hash computation (vectorised murmur-style).
    HASH_INSTRS = 3.0
    #: Instructions per hash-entry visit (load + compare).
    VISIT_INSTRS = 2.0
    #: MLP a SIMD gather sustains on hash-probe cache misses.
    SIMD_GATHER_MLP = 12.0

    #: The SIMD per-element pass cost (0.8 instructions) is not dyadic;
    #: per-morsel element counts accumulate in ``pending`` and the
    #: product is taken once at finalization (partition-invariant).
    PENDING_RATES = {
        "simd-pass": (("instructions", SIMD_PASS_INSTRS),),
    }

    # ------------------------------------------------------------------
    # Primitive cost helpers
    # ------------------------------------------------------------------
    def _pass(
        self,
        work,
        count: float,
        loads: float = 2.0,
        stores: float = 1.0,
        alu: float = 1.0,
        simd: bool = False,
        extra_instr: float = 0.0,
    ) -> None:
        """One primitive pass over ``count`` elements."""
        if simd:
            scale = 1.0 / self.SIMD_LANES
            work.record_work(
                instructions=count * extra_instr * scale,
                simd=count * alu * scale,
                loads=count * loads * scale,
                stores=count * stores * scale,
            )
            work.record_pending("simd-pass", count)
        else:
            work.record_work(
                instructions=count * (self.PASS_INSTRS + extra_instr),
                alu=count * alu,
                loads=count * loads,
                stores=count * stores,
            )

    def _reduce(self, work, count: float, simd: bool = False) -> None:
        """Final sum-reduction pass (serial accumulator chain)."""
        if simd:
            scale = 1.0 / self.SIMD_LANES
            work.record_work(
                instructions=count * self.REDUCE_INSTRS * scale * 2,
                simd=count * scale,
                loads=count * scale,
                chain=count * scale,
            )
        else:
            work.record_work(
                instructions=count * self.REDUCE_INSTRS,
                alu=count,
                loads=count,
                chain=count,
            )

    def _materialize(self, work, count: float, vectors: float = 1.0, simd: bool = False) -> None:
        """Vector materialisation traffic: written once, re-read by the
        next primitive; lives in L1/L2, not DRAM.  SIMD moves the same
        bytes with full-register accesses."""
        work.record_cached_traffic(
            read=count * 8.0 * vectors,
            write=count * 8.0 * vectors,
            access_bytes=64.0 if simd else 8.0,
        )

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
        work.record_sequential_read(bytes_for_rows(lineitem, columns, lo, hi))
        # (degree-1) binary add passes materialising intermediates,
        # then one reduction pass.  From degree two onwards every pass
        # sees the same pattern: two vectors in, one vector out --
        # which is why the breakdown stays flat (Section 3).
        add_passes = max(0, degree - 1)
        for _ in range(add_passes):
            self._pass(work, m, simd=simd)
        if add_passes:
            self._materialize(work, m, vectors=add_passes, simd=simd)
        self._reduce(work, m, simd=simd)
        label = f"projection-p{degree}" + ("-simd" if simd else "")
        state = {"sum": total_sum, AGG_STATE_KEY: decision}
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
        label = f"projection-p{degree}" + ("-simd" if simd else "")
        details = {"simd": simd}
        if decision:
            record_encoded_agg(decision)
            details["encoded_agg"] = decision_details(decision)
        return QueryResult(
            label, merged.state["sum"].total(), merged.tuples, work, details
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

        work = self._new_work()
        # Predicates evaluated one primitive at a time over shrinking
        # selection vectors; the predictor sees each *individual*
        # conditional selectivity (Section 4).
        candidates = np.arange(m)
        prev_count = m
        first = True
        for column, mask in masks:
            outcomes = mask[candidates]
            passed = candidates[outcomes]
            column_bytes = bytes_for_rows(lineitem, [column], lo, hi)
            if first:
                work.record_sequential_read(column_bytes)
                first = False
            else:
                touched, total_lines = gather_lines(candidates + lo, lo, hi)
                work.record_gather(
                    f"{column} gather", column_bytes, touched, total_lines
                )
            if predicated:
                # Branch-free selection-vector computation: flag math
                # plus unconditional index store (Section 7).
                self._pass(work, prev_count, stores=1.0, alu=3.0, extra_instr=2.0, simd=simd)
            else:
                self._pass(work, prev_count, stores=0.5, alu=1.0, extra_instr=1.0, simd=simd)
                taken = len(passed) / prev_count if prev_count else 0.0
                work.record_branch_stream(f"{column} predicate", prev_count, taken)
            self._materialize(work, len(passed), simd=simd)
            candidates = passed
            prev_count = len(passed)

        q = len(candidates)
        projected = np.zeros(q)
        for column in proj_cols:
            projected = projected + lineitem[column][lo:hi][candidates]

        # Projection through the final selection vector: gather passes
        # + adds + reduce.  The bulk of the projection work is the same
        # with and without predication (Section 7).
        touched, total_lines = gather_lines(candidates + lo, lo, hi)
        for column in proj_cols:
            work.record_gather(
                f"{column} gather",
                bytes_for_rows(lineitem, [column], lo, hi),
                touched,
                total_lines,
            )
        add_passes = len(proj_cols) - 1
        for _ in range(add_passes):
            self._pass(work, q, extra_instr=1.0, simd=simd)
        self._materialize(work, q, vectors=add_passes, simd=simd)
        self._reduce(work, q, simd=simd)

        label = f"selection-{int(selectivity * 100)}%" + (
            "-predicated" if predicated else ""
        ) + ("-simd" if simd else "")
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
        ) + ("-simd" if simd else "")
        details = {
            "selectivity": selectivity,
            "combined_selectivity": q / n if n else 0.0,
            "predicated": predicated,
            "simd": simd,
        }
        return QueryResult(label, merged.state["sum"].total(), n, work, details)

    # ------------------------------------------------------------------
    # Join (Sections 5 and 8.2)
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
        probe_work.record_sequential_read(bytes_for_rows(probe, [spec.probe_key], lo, hi))
        self._record_probe(probe_work, table, result, m, simd=simd)
        # Sum over matches: gather passes + adds + reduce (all matched
        # here: FK joins, density ~1).
        aggregate_work = operators.operator("aggregate")
        aggregate_work.record_sequential_read(
            bytes_for_rows(probe, spec.sum_columns, lo, hi)
        )
        add_passes = len(spec.sum_columns) - 1
        for _ in range(add_passes + 1):
            self._pass(aggregate_work, matches, extra_instr=1.0, simd=simd)
        self._materialize(aggregate_work, matches, vectors=add_passes + 1, simd=simd)
        self._reduce(aggregate_work, matches, simd=simd)
        work = operators.total()

        label = f"join-{size}" + ("-simd" if simd else "")
        state = {"sum": ExactSum.of_array(projected), "found": matches}
        if row_range is not None:
            return self._partial_result(
                label, state, m, work, (lo, hi), operators.profiles
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
        label = f"join-{size}" + ("-simd" if simd else "")
        details = {
            "join_size": size,
            "hit_fraction": merged.state["found"] / n_probe if n_probe else 0.0,
            "chain_stats": table.chain_stats(),
            "hash_table_bytes": table.working_set_bytes,
            "simd": simd,
            "operators": operators,
        }
        return QueryResult(
            label, merged.state["sum"].total(), n_probe, work, details
        )

    def _record_build(
        self, work, table: ChainedHashTable, key_bytes: float, lead: bool = True
    ) -> None:
        """Vectorized build: hash pass + scatter insert pass.  Global
        work: full counts on the lead morsel, congruent zero-count
        placeholders elsewhere."""
        n = table.n_keys if lead else 0
        self._pass(work, n, extra_instr=self.HASH_INSTRS)
        work.record_work(hash_ops=n, stores=n)
        self._materialize(work, n)
        work.record_sequential_read(key_bytes if lead else 0.0)
        work.record_random("hash build scatter", n, table.working_set_bytes)

    def _record_probe(
        self, work, table: ChainedHashTable, result, n_probe: int, simd: bool = False
    ) -> None:
        """Vectorized probe: hash pass, head-gather pass, compare pass,
        chain-walk pass; materialises hash and candidate vectors."""
        self._pass(work, n_probe, extra_instr=self.HASH_INSTRS, simd=simd)
        work.record_work(hash_ops=n_probe)
        self._pass(work, n_probe, loads=1.0, simd=simd)  # head gather
        self._pass(work, n_probe, extra_instr=1.0, simd=simd)  # key compare
        self._pass(work, result.extra_walk, extra_instr=self.VISIT_INSTRS)
        self._materialize(work, n_probe, vectors=2.0, simd=simd)
        work.record_random(
            "hash probe heads",
            n_probe,
            table.working_set_bytes,
            mlp_hint=self.SIMD_GATHER_MLP if simd else None,
        )
        work.record_random(
            "hash chain walk",
            result.extra_walk,
            table.working_set_bytes,
            dependent=True,
        )
        if not simd:
            work.record_branch_outcomes("probe hit", result.found)
            walk_fraction = (
                result.extra_walk / result.comparisons if result.comparisons else 0.0
            )
            work.record_branch_stream(
                "chain continue", result.comparisons, walk_fraction
            )

    # ------------------------------------------------------------------
    # Group by
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
        work.record_sequential_read(
            bytes_for_rows(lineitem, ["l_partkey", "l_returnflag", "l_extendedprice"], lo, hi)
        )
        self._record_groupby_updates(work, table, lo, hi)
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
        self, work, table: GroupByHashTable, lo: int, hi: int
    ) -> None:
        depths = table._depth[table.group_ids[lo:hi]]
        n = hi - lo
        comparisons = int(depths.sum())
        collisions = int((depths > 1).sum())
        self._pass(work, n, extra_instr=self.HASH_INSTRS)  # hash pass
        self._pass(work, n, loads=1.0)  # slot gather
        self._pass(work, n, extra_instr=1.0)  # compare + update pass
        work.record_work(hash_ops=n, chain=n, stores=n)
        self._pass(work, comparisons - n, extra_instr=self.VISIT_INSTRS)
        self._materialize(work, n, vectors=2.0)
        work.record_random("group table update", n, table.working_set_bytes)
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
        selected = np.flatnonzero(mask)
        q = len(selected)

        encoded_payload, agg_decision = q1_encoded_aggregation(
            lineitem, lo, hi, selected
        )
        price = lineitem["l_extendedprice"][lo:hi][selected]
        discount = lineitem["l_discount"][lo:hi][selected]
        tax = lineitem["l_tax"][lo:hi][selected]
        disc_price = price * (1.0 - discount)
        charge = disc_price * (1.0 + tax)
        if encoded_payload is not None:
            # One combined bincount over (flag x status x quantity-code)
            # cells delivered both the exact quantity sum and the set of
            # observed group keys; the decoded quantity/key columns are
            # never materialised.
            sum_qty, keys = encoded_payload
        else:
            sum_qty = ExactSum.of_array(lineitem["l_quantity"][lo:hi][selected])
            group_key = combined_key(
                lineitem, "l_returnflag", "l_linestatus", 2, lo, hi, take=selected
            )
            keys = set(np.unique(group_key).tolist())

        work = self._new_work()
        columns = (
            "l_shipdate", "l_returnflag", "l_linestatus", "l_quantity",
            "l_extendedprice", "l_discount", "l_tax",
        )
        work.record_sequential_read(bytes_for_rows(lineitem, columns, lo, hi))
        # Filter primitive + outcome stream (predictable, ~99% taken).
        self._pass(work, m, stores=0.5, extra_instr=1.0)
        work.record_branch_outcomes("shipdate filter", mask)
        # Expression passes: 1-discount, *, 1+tax, * -> 4 passes; key
        # pass; 8 aggregate update passes through the group vector.
        for _ in range(4):
            self._pass(work, q)
        self._pass(work, q, extra_instr=self.HASH_INSTRS)
        work.record_work(hash_ops=q)
        for _ in range(8):
            self._pass(work, q, loads=2.0, stores=1.0)
        work.record_work(chain=q * 2.0)
        self._materialize(work, q, vectors=7.0)
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
        predicates = [
            ("l_shipdate >=",
             predicate_mask(lineitem, "l_shipdate", "ge", sc.DATE_1994_01_01, lo, hi)),
            ("l_shipdate <",
             predicate_mask(lineitem, "l_shipdate", "lt", sc.DATE_1995_01_01, lo, hi)),
            ("l_discount >=",
             predicate_mask(lineitem, "l_discount", "ge", 0.05, lo, hi)),
            ("l_discount <=",
             predicate_mask(lineitem, "l_discount", "le", 0.07, lo, hi)),
            ("l_quantity <",
             predicate_mask(lineitem, "l_quantity", "lt", 24.0, lo, hi)),
        ]
        pred_columns = ["l_shipdate", "l_shipdate", "l_discount", "l_discount", "l_quantity"]

        work = self._new_work()
        candidates = np.arange(m)
        prev_count = m
        seen_columns: set[str] = set()
        for index, ((name, mask), column) in enumerate(zip(predicates, pred_columns)):
            outcomes = mask[candidates]
            passed = candidates[outcomes]
            if column not in seen_columns:
                column_bytes = bytes_for_rows(lineitem, [column], lo, hi)
                if index == 0:
                    work.record_sequential_read(column_bytes)
                else:
                    touched, total_lines = gather_lines(candidates + lo, lo, hi)
                    work.record_gather(
                        f"{column} gather", column_bytes, touched, total_lines
                    )
                seen_columns.add(column)
            if predicated:
                self._pass(work, prev_count, stores=1.0, alu=3.0, extra_instr=2.0)
            else:
                self._pass(work, prev_count, stores=0.5, extra_instr=1.0)
                taken = len(passed) / prev_count if prev_count else 0.0
                work.record_branch_stream(f"{name} predicate", prev_count, taken)
            self._materialize(work, len(passed))
            candidates = passed
            prev_count = len(passed)

        q = len(candidates)
        amounts = (
            lineitem["l_extendedprice"][lo:hi][candidates]
            * lineitem["l_discount"][lo:hi][candidates]
        )
        touched, total_lines = gather_lines(candidates + lo, lo, hi)
        work.record_gather(
            "l_extendedprice gather",
            bytes_for_rows(lineitem, ["l_extendedprice"], lo, hi),
            touched,
            total_lines,
        )
        self._pass(work, q, extra_instr=1.0)  # price * discount
        self._materialize(work, q)
        self._reduce(work, q)
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
        supplier = db.table("supplier")
        partsupp = db.table("partsupp")
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

        work = self._new_work()
        work.record_sequential_read(
            bytes_for_rows(
                lineitem,
                ("l_partkey", "l_suppkey", "l_orderkey", "l_extendedprice",
                 "l_discount", "l_quantity"),
                lo,
                hi,
            )
        )
        for table, key_bytes in (
            (green_table, structs["green_keys"].nbytes),
            (ps_table, partsupp.bytes_for(("ps_partkey", "ps_suppkey", "ps_supplycost"))),
            (supp_table, supplier.bytes_for(("s_suppkey", "s_nationkey"))),
            (orders_table, orders.bytes_for(("o_orderkey", "o_orderdate"))),
        ):
            self._record_build(work, table, key_bytes, lead=lead)
        self._record_probe(work, green_table, green_probe, m)
        self._record_probe(work, ps_table, ps_probe, q)
        self._record_probe(work, supp_table, supp_probe, q)
        self._record_probe(work, orders_table, orders_probe, q)
        for _ in range(4):  # amount expression passes
            self._pass(work, survivors)
        self._pass(work, survivors, extra_instr=self.HASH_INSTRS)
        work.record_work(hash_ops=survivors, chain=survivors)
        self._materialize(work, survivors, vectors=4.0)
        state = {
            "sum": ExactSum.of_array(amount),
            "green": q,
            "survivors": survivors,
        }
        if row_range is not None:
            return self._partial_result("Q9", state, m, work, (lo, hi))
        return self._finish_q9(db, MergedPartials(state, work, m))

    def _finish_q9(self, db: Database, merged: MergedPartials) -> QueryResult:
        n = merged.tuples
        work = self._finalize_profile(merged.work)
        details = {
            "green_fraction": merged.state["green"] / n if n else 0.0,
            "survivors": merged.state["survivors"],
            "orders_ht_bytes": key_table(db, "orders", "o_orderkey").working_set_bytes,
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
        self._record_groupby_updates(work, group_table, lo, hi)
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
