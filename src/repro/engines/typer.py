"""Typer: the compiled, data-centric execution model (HyPer-style).

Typer compiles each query into fused per-tuple loops: operators are
inlined into a single pipeline, predicates of a conjunction are
evaluated together (so the dominant branch sees the *combined*
selectivity, Section 4), and no intermediate results are materialised.
The hot code of one query is a few kilobytes -- far below the L1I.

This module is Typer's *cost model* only.  The queries themselves run
once, in :class:`~repro.engines.base.Engine`'s shared data passes; each
``_cost_<workload>`` below prices what a pass measured over its morsel
(:class:`~repro.engines.base.Facts`: predicate masks, qualifying rows,
probe results) as the compiled per-tuple loop would execute it:
per-tuple instruction counts, operation mix, branch outcome streams and
the exact bytes/accesses the fused pipeline touches.

Recording follows the morsel protocol (:mod:`repro.engines.morsel`):
every branch/random/sparse stream is recorded unconditionally in a
fixed order (zero-count placeholders keep partial profiles congruent)
and global hash builds are recorded by the lead morsel only.
"""

from __future__ import annotations

import numpy as np

from repro.engines.base import Engine, Facts, OperatorWork
from repro.engines.hashtable import ChainedHashTable, GroupByHashTable
from repro.engines.morsel import bytes_for_rows, gather_lines
from repro.storage import Database
from repro.tpch.schema import LINEITEM_SCANS


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
    def _cost_projection(
        self, db: Database, facts: Facts, lo: int, hi: int, degree: int, simd: bool = False
    ):
        m = hi - lo
        work = self._new_work()
        # Fused loop: degree loads, degree FP adds (including the
        # accumulator), amortised loop control.
        work.record_work(
            instructions=m * (self.LOOP_INSTRS + 2.0 * degree),
            alu=m * degree,
            loads=m * degree,
            chain=m,  # serial accumulator update
        )
        work.record_sequential_read(
            bytes_for_rows(db.table("lineitem"), facts.columns, lo, hi)
        )
        return work

    # ------------------------------------------------------------------
    # Selection (Sections 4 and 7)
    # ------------------------------------------------------------------
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
        lineitem = db.table("lineitem")
        m = hi - lo
        q = len(facts.qualifying)
        work = self._new_work()
        pred_bytes = bytes_for_rows(lineitem, [name for name, _ in facts.masks], lo, hi)
        proj_bytes = bytes_for_rows(lineitem, facts.proj_cols, lo, hi)
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
            work.record_branch_outcomes("combined predicate", facts.combined)
            touched, total_lines = gather_lines(facts.qualifying + lo, lo, hi)
            work.record_gather("projection gather", proj_bytes, touched, total_lines)
        return work

    # ------------------------------------------------------------------
    # Join (Section 5)
    # ------------------------------------------------------------------
    def _cost_join(
        self, db: Database, facts: Facts, lo: int, hi: int, size: str, simd: bool = False
    ):
        spec = facts.spec
        probe = db.table(spec.probe_table)
        m = hi - lo
        matches = facts.state["found"]
        operators = OperatorWork(self)
        self._record_build(
            operators.operator("hash build"),
            facts.table,
            db.table(spec.build_table).bytes_for([spec.build_key]),
            lead=lo == 0,
        )
        probe_work = operators.operator("hash probe")
        self._record_probe(probe_work, facts.table, facts.probe, m)
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
        return operators

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
    def _cost_groupby(self, db: Database, facts: Facts, lo: int, hi: int):
        work = self._new_work()
        self._record_groupby_updates(
            work,
            facts.table,
            bytes_for_rows(
                db.table("lineitem"), LINEITEM_SCANS["run_groupby"].columns, lo, hi
            ),
            lo,
            hi,
        )
        return work

    def _record_groupby_updates(
        self, work, table: GroupByHashTable, col_bytes: float, lo: int, hi: int
    ) -> None:
        depths = table.update_depths(lo, hi)
        n = hi - lo
        comparisons = int(depths.sum(dtype=np.int64))
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
    def _cost_q1(self, db: Database, facts: Facts, lo: int, hi: int):
        m = hi - lo
        q = facts.selected
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
        work.record_sequential_read(
            bytes_for_rows(db.table("lineitem"), LINEITEM_SCANS["run_q1"].columns, lo, hi)
        )
        work.record_branch_outcomes("shipdate filter", facts.mask)
        # The 4-group aggregation table lives in L1: no random pattern.
        return work

    def _cost_q6(
        self, db: Database, facts: Facts, lo: int, hi: int, predicated: bool = False
    ):
        lineitem = db.table("lineitem")
        m = hi - lo
        q = len(facts.qualifying)
        date_pass, disc_pass, qty_pass = facts.conjuncts
        pred_cols = LINEITEM_SCANS["run_q6"].predicate_columns
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
            touched, total_lines = gather_lines(facts.qualifying + lo, lo, hi)
            work.record_gather("price gather", price_bytes, touched, total_lines)
        return work

    def _cost_q9(self, db: Database, facts: Facts, lo: int, hi: int):
        lineitem = db.table("lineitem")
        m = hi - lo
        survivors = facts.state["survivors"]
        operators = OperatorWork(self)
        scan_work = operators.operator("scan lineitem")
        scan_work.record_sequential_read(
            bytes_for_rows(lineitem, LINEITEM_SCANS["run_q9"].columns, lo, hi)
        )
        scan_work.record_work(instructions=m * self.LOOP_INSTRS)
        build_work = operators.operator("hash builds")
        for table, key_bytes in facts.builds:
            self._record_build(build_work, table, key_bytes, lead=lo == 0)
        for side, table, result, n_probe in facts.probes:
            self._record_probe(operators.operator(f"probe {side}"), table, result, n_probe)
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
        return operators

    def _cost_q18(self, db: Database, facts: Facts, lo: int, hi: int):
        work = self._new_work()
        work.record_sequential_read(
            bytes_for_rows(db.table("lineitem"), LINEITEM_SCANS["run_q18"].columns, lo, hi)
        )
        self._record_groupby_updates(work, facts.table, 0.0, lo, hi)
        return work
