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

This module is Tectorwise's *cost model* only.  The queries themselves
run once, in :class:`~repro.engines.base.Engine`'s shared data passes;
each ``_cost_<workload>`` below prices what a pass measured over its
morsel (:class:`~repro.engines.base.Facts`) as the vector-at-a-time
interpreter would execute it: per-element primitive costs, vector
materialisation traffic, branch streams and probe accesses.  The
shrinking selection vectors of a predicate cascade are part of that
model and are derived here, from the shared masks.

Recording follows the morsel protocol (:mod:`repro.engines.morsel`):
per-morsel recordings are dyadic and positionally congruent (global
hash builds are recorded by the lead morsel, zero-count placeholders
elsewhere) and the non-dyadic SIMD per-element pass cost (0.8
instructions) is deferred through :attr:`PENDING_RATES`.
"""

from __future__ import annotations

import numpy as np

from repro.engines.base import Engine, Facts, OperatorWork
from repro.engines.hashtable import ChainedHashTable, GroupByHashTable
from repro.engines.morsel import bytes_for_rows, gather_lines
from repro.storage import Database


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

    @staticmethod
    def _selection_vectors(predicates):
        """The shrinking selection vectors of a predicate cascade.

        ``predicates`` are tuples ending in the predicate's outcome mask
        over the morsel; yields ``(predicate, candidates, passed)``: the
        rows it is evaluated on (None for the first: every row, no
        selection vector yet) and the rows that survive it."""
        candidates = None
        for predicate in predicates:
            mask = predicate[-1]
            if candidates is None:
                passed = np.flatnonzero(mask)
            else:
                passed = candidates[mask[candidates]]
            yield predicate, candidates, passed
            candidates = passed

    # ------------------------------------------------------------------
    # Projection (Section 3)
    # ------------------------------------------------------------------
    def _cost_projection(
        self, db: Database, facts: Facts, lo: int, hi: int, degree: int, simd: bool = False
    ):
        m = hi - lo
        work = self._new_work()
        work.record_sequential_read(
            bytes_for_rows(db.table("lineitem"), facts.columns, lo, hi)
        )
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
        work = self._new_work()
        # Predicates evaluated one primitive at a time over shrinking
        # selection vectors; the predictor sees each *individual*
        # conditional selectivity (Section 4).
        prev_count = m
        for (column, _), candidates, passed in self._selection_vectors(facts.masks):
            column_bytes = bytes_for_rows(lineitem, [column], lo, hi)
            if candidates is None:
                work.record_sequential_read(column_bytes)
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
            prev_count = len(passed)

        # Projection through the final selection vector (the cascade's
        # survivors are the pass's qualifying rows): gather passes +
        # adds + reduce.  The bulk of the projection work is the same
        # with and without predication (Section 7).
        q = len(facts.qualifying)
        touched, total_lines = gather_lines(facts.qualifying + lo, lo, hi)
        for column in facts.proj_cols:
            work.record_gather(
                f"{column} gather",
                bytes_for_rows(lineitem, [column], lo, hi),
                touched,
                total_lines,
            )
        add_passes = len(facts.proj_cols) - 1
        for _ in range(add_passes):
            self._pass(work, q, extra_instr=1.0, simd=simd)
        self._materialize(work, q, vectors=add_passes, simd=simd)
        self._reduce(work, q, simd=simd)
        return work

    # ------------------------------------------------------------------
    # Join (Sections 5 and 8.2)
    # ------------------------------------------------------------------
    def _cost_join(
        self, db: Database, facts: Facts, lo: int, hi: int, size: str, simd: bool = False
    ):
        spec = facts.spec
        probe = db.table(spec.probe_table)
        matches = facts.state["found"]
        operators = OperatorWork(self)
        self._record_build(
            operators.operator("hash build"),
            facts.table,
            db.table(spec.build_table).bytes_for([spec.build_key]),
            lead=lo == 0,
        )
        probe_work = operators.operator("hash probe")
        probe_work.record_sequential_read(bytes_for_rows(probe, [spec.probe_key], lo, hi))
        self._record_probe(probe_work, facts.table, facts.probe, hi - lo, simd=simd)
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
        return operators

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
    def _cost_groupby(self, db: Database, facts: Facts, lo: int, hi: int):
        work = self._new_work()
        work.record_sequential_read(
            bytes_for_rows(
                db.table("lineitem"),
                ["l_partkey", "l_returnflag", "l_extendedprice"],
                lo,
                hi,
            )
        )
        self._record_groupby_updates(work, facts.table, lo, hi)
        return work

    def _record_groupby_updates(
        self, work, table: GroupByHashTable, lo: int, hi: int
    ) -> None:
        depths = table.update_depths(lo, hi)
        n = hi - lo
        comparisons = int(depths.sum(dtype=np.int64))
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
    def _cost_q1(self, db: Database, facts: Facts, lo: int, hi: int):
        m = hi - lo
        q = facts.selected
        work = self._new_work()
        columns = (
            "l_shipdate", "l_returnflag", "l_linestatus", "l_quantity",
            "l_extendedprice", "l_discount", "l_tax",
        )
        work.record_sequential_read(bytes_for_rows(db.table("lineitem"), columns, lo, hi))
        # Filter primitive + outcome stream (predictable, ~99% taken).
        self._pass(work, m, stores=0.5, extra_instr=1.0)
        work.record_branch_outcomes("shipdate filter", facts.mask)
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
        return work

    def _cost_q6(
        self, db: Database, facts: Facts, lo: int, hi: int, predicated: bool = False
    ):
        lineitem = db.table("lineitem")
        m = hi - lo
        work = self._new_work()
        # One primitive per one-sided predicate over shrinking selection
        # vectors; a column is fetched by the first predicate on it.
        prev_count = m
        seen_columns: set[str] = set()
        for (name, column, _), candidates, passed in self._selection_vectors(
            facts.predicates
        ):
            if column not in seen_columns:
                column_bytes = bytes_for_rows(lineitem, [column], lo, hi)
                if candidates is None:
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
            prev_count = len(passed)

        q = len(facts.qualifying)
        touched, total_lines = gather_lines(facts.qualifying + lo, lo, hi)
        work.record_gather(
            "l_extendedprice gather",
            bytes_for_rows(lineitem, ["l_extendedprice"], lo, hi),
            touched,
            total_lines,
        )
        self._pass(work, q, extra_instr=1.0)  # price * discount
        self._materialize(work, q)
        self._reduce(work, q)
        return work

    def _cost_q9(self, db: Database, facts: Facts, lo: int, hi: int):
        survivors = facts.state["survivors"]
        work = self._new_work()
        work.record_sequential_read(
            bytes_for_rows(
                db.table("lineitem"),
                ("l_partkey", "l_suppkey", "l_orderkey", "l_extendedprice",
                 "l_discount", "l_quantity"),
                lo,
                hi,
            )
        )
        for table, key_bytes in facts.builds:
            self._record_build(work, table, key_bytes, lead=lo == 0)
        for _, table, result, n_probe in facts.probes:
            self._record_probe(work, table, result, n_probe)
        for _ in range(4):  # amount expression passes
            self._pass(work, survivors)
        self._pass(work, survivors, extra_instr=self.HASH_INSTRS)
        work.record_work(hash_ops=survivors, chain=survivors)
        self._materialize(work, survivors, vectors=4.0)
        return work

    def _cost_q18(self, db: Database, facts: Facts, lo: int, hi: int):
        work = self._new_work()
        work.record_sequential_read(
            bytes_for_rows(db.table("lineitem"), ("l_orderkey", "l_quantity"), lo, hi)
        )
        self._record_groupby_updates(work, facts.table, lo, hi)
        return work
