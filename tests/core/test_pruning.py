"""Prune plans (:mod:`repro.core.pruning`): atom extraction, the
first-false chunk rule, plan tiling, and virtual-row translation.

The end-to-end bit-identity of pruned execution is pinned by
:mod:`tests.engines.test_pruning_equivalence`; this module checks the
planning layer in isolation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import pruning
from repro.core.parallel import normalized_call
from repro.core.pruning import PredicateAtom, compute_prune_plan, translate_claim
from repro.engines import TyperEngine
from repro.sql.api import compile_sql
from repro.storage.encoding import compare_values
from repro.storage.zonemap import CHUNK_ROWS
from repro.tpch.sql import GROUPBY_SQL, projection_sql


# ----------------------------------------------------------------------
# Atom extraction
# ----------------------------------------------------------------------
class TestAtoms:
    """The canonical per-method summary describes the engines'
    predicate_mask calls in their evaluation order."""

    def test_q6_atom_order_is_engine_evaluation_order(self, tiny_db):
        columns = [atom.column for atom in
                   pruning.atoms_for(tiny_db, "run_q6", {})]
        assert columns == ["l_shipdate", "l_shipdate", "l_discount",
                           "l_discount", "l_quantity"]

    def test_unfiltered_plans_have_no_atoms(self, tiny_db):
        for sql in (projection_sql(3), GROUPBY_SQL):
            bound = compile_sql(sql)
            method, kwargs_items = normalized_call(
                TyperEngine(), bound.method, bound.args, bound.call_kwargs()
            )
            assert pruning.atoms_for(tiny_db, method, kwargs_items) == ()

    def test_unprunable_methods_have_no_atoms(self, tiny_db):
        assert pruning.atoms_for(tiny_db, "run_projection", {"degree": 2}) == ()
        assert pruning.atoms_for(tiny_db, "run_join", {"size": "small"}) == ()
        assert pruning.atoms_for(tiny_db, "run_groupby", {}) == ()

    def test_invalid_selection_parameters_yield_no_atoms(self, tiny_db):
        atoms = pruning.atoms_for(
            tiny_db, "run_selection", {"selectivity": -0.5, "thresholds": None}
        )
        assert atoms == ()


class TestToggle:
    def test_enabled_by_default(self, sorted_db):
        """Pruning has no switch: a prunable call on clustered data
        always gets a plan."""
        plan = pruning.plan_for(sorted_db, "run_q6", {}, executor="thread")
        assert plan is not None and plan.chunks_pruned > 0


# ----------------------------------------------------------------------
# Plan structure
# ----------------------------------------------------------------------
class TestPrunePlan:
    @pytest.fixture(scope="class")
    def plan(self, sorted_db):
        atoms = pruning.atoms_for(sorted_db, "run_q6", {})
        plan = compute_prune_plan(sorted_db, atoms)
        assert plan is not None and plan.chunks_pruned > 0
        return plan

    def test_segments_and_runs_tile_the_table(self, plan, sorted_db):
        ranges = sorted(
            list(plan.kept_segments) + [(lo, hi) for lo, hi, _ in plan.pruned_runs]
        )
        assert ranges[0][0] == 0
        assert ranges[-1][1] == plan.n_rows == sorted_db.table("lineitem").n_rows
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo
        for lo, hi in ranges:
            assert lo % CHUNK_ROWS == 0
            assert hi % CHUNK_ROWS == 0 or hi == plan.n_rows

    def test_chunk_counts_are_consistent(self, plan):
        assert plan.chunks_total == -(-plan.n_rows // CHUNK_ROWS)
        pruned = sum(
            -(-(min(hi, plan.n_rows) - lo) // CHUNK_ROWS)
            for lo, hi, _ in plan.pruned_runs
        )
        assert plan.chunks_pruned == pruned
        assert plan.kept_rows + plan.rows_pruned == plan.n_rows

    def test_first_false_rule_is_a_theorem(self, plan, sorted_db):
        """On every pruned run the prefix atoms hold for *all* rows and
        the first-false atom for *none* -- checked against the data."""
        table = sorted_db.table("lineitem")
        values = {
            atom.column: np.asarray(table[atom.column]) for atom in plan.atoms
        }
        for lo, hi, j in plan.pruned_runs:
            for index, atom in enumerate(plan.atoms[: j + 1]):
                mask = compare_values(
                    values[atom.column][lo:hi], atom.op, atom.threshold)
                if index < j:
                    assert mask.all(), (lo, hi, index)
                else:
                    assert not mask.any(), (lo, hi, j)

    def test_no_qualifying_row_is_pruned(self, plan, sorted_db):
        table = sorted_db.table("lineitem")
        full = np.ones(plan.n_rows, dtype=bool)
        for atom in plan.atoms:
            full &= compare_values(
                np.asarray(table[atom.column]), atom.op, atom.threshold)
        kept = np.zeros(plan.n_rows, dtype=bool)
        for lo, hi in plan.kept_segments:
            kept[lo:hi] = True
        assert not (full & ~kept).any()

    def test_summary_counts_method_bytes(self, plan, sorted_db):
        summary = plan.summary(sorted_db, "run_q6")
        assert summary["morsels_pruned"] == plan.chunks_pruned
        assert summary["morsels_scanned"] == plan.chunks_total - plan.chunks_pruned
        table = sorted_db.table("lineitem")
        itemsize = sum(
            table.column(name).itemsize
            for name in pruning.METHOD_SCAN_COLUMNS["run_q6"]
        )
        assert summary["bytes_pruned"] == plan.rows_pruned * itemsize

    def test_no_atoms_yields_no_plan(self, sorted_db):
        assert compute_prune_plan(sorted_db, ()) is None

    def test_tautology_prunes_nothing(self, sorted_db):
        plan = compute_prune_plan(
            sorted_db, (PredicateAtom("l_quantity", "ge", -1.0),))
        assert plan is not None and plan.nothing_pruned
        assert plan.kept_rows == plan.n_rows

    def test_contradiction_prunes_everything(self, sorted_db):
        shipdate = np.asarray(sorted_db.table("lineitem")["l_shipdate"])
        plan = compute_prune_plan(
            sorted_db,
            (PredicateAtom("l_shipdate", "lt", float(shipdate.min()) - 1.0),),
        )
        assert plan is not None
        assert plan.kept_rows == 0
        assert plan.rows_pruned == plan.n_rows
        assert plan.pruned_runs == ((0, plan.n_rows, 0),)

    def test_shuffled_data_prunes_nothing(self, small_db):
        """The generated (shuffled) database has full-range chunks: the
        honest no-win case the benchmark also records."""
        atoms = pruning.atoms_for(small_db, "run_q6", {})
        plan = compute_prune_plan(small_db, atoms)
        assert plan is not None and plan.nothing_pruned


# ----------------------------------------------------------------------
# Virtual-row translation
# ----------------------------------------------------------------------
class TestTranslation:
    SEGMENTS = ((0, 128), (256, 640), (1024, 1025))

    def test_kept_offsets_are_prefix_sums(self):
        assert pruning.kept_offsets(self.SEGMENTS) == [0, 128, 512]

    def test_claims_tile_back_to_segments(self):
        offsets = pruning.kept_offsets(self.SEGMENTS)
        total = sum(hi - lo for lo, hi in self.SEGMENTS)
        for claim_rows in (1, 64, 100, 512, total):
            pieces = []
            for vlo in range(0, total, claim_rows):
                pieces += translate_claim(
                    self.SEGMENTS, offsets, vlo, min(vlo + claim_rows, total))
            # The translated pieces tile the kept segments exactly.
            merged = []
            for lo, hi in pieces:
                assert lo < hi
                if merged and merged[-1][1] == lo:
                    merged[-1] = (merged[-1][0], hi)
                else:
                    merged.append((lo, hi))
            assert tuple(merged) == self.SEGMENTS, claim_rows

    def test_claim_spanning_a_boundary_splits(self):
        offsets = pruning.kept_offsets(self.SEGMENTS)
        assert translate_claim(self.SEGMENTS, offsets, 64, 192) == [
            (64, 128), (256, 320)
        ]

    def test_full_claim_covers_everything(self):
        offsets = pruning.kept_offsets(self.SEGMENTS)
        pieces = translate_claim(self.SEGMENTS, offsets, 0, 513)
        assert pieces == [(0, 128), (256, 640), (1024, 1025)]
