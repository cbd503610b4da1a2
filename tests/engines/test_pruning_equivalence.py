"""Pruned execution must be bit-identical to unpruned execution.

Zone-map pruning (:mod:`repro.core.pruning`) promises the same contract
as the morsel and encoding layers: skipping chunks changes *nothing
observable* -- values, tuple counts, work profiles and per-operator
attribution all match the single-shot run, for every engine, in the
thread path and through the process pool, including the all-pruned and
nothing-pruned edges.  Those cells are declared in the matrix
(``tests/matrix``, databases ``sorted``, ``shifted`` and ``folded``);
the tests here keep their ids, and a hypothesis sweep extends the check
to arbitrary selection thresholds (and hence arbitrary prune shapes).
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from matrix.cells import assert_bit_identical
from matrix.suites import cases, cells

from repro.core import pruning
from repro.engines import ALL_ENGINES
from repro.engines.morsel import morsel_ranges
from repro.tpch.schema import SELECTION_PREDICATE_COLUMNS


def pruned_result(engine, db, method, kwargs):
    atoms = pruning.atoms_for(db, method, kwargs)
    plan = pruning.compute_prune_plan(db, atoms)
    return plan, (
        None if plan is None
        else pruning.execute_pruned(engine, db, method, kwargs, plan)
    )


class TestThreadMatrix:
    @cases("pruning::test_pruned_equals_single_shot")
    def test_pruned_equals_single_shot(self, matrix, cells):
        matrix.check(cells)

    @cases("pruning::test_all_pruned_edge")
    def test_all_pruned_edge(self, matrix, cells):
        matrix.check(cells)

    @cases("pruning::test_folded_blocks_match_single_shot")
    def test_folded_blocks_match_single_shot(self, matrix, cells):
        """Four equal pruned blocks per key fold into one partial (DBMS
        R's position signature keeps k = 1), inline and through the
        pool's parent-side synthesis."""
        matrix.check(cells)

    def test_nothing_pruned_on_shuffled_data(self, small_db):
        atoms = pruning.atoms_for(small_db, "run_q6", {})
        plan = pruning.compute_prune_plan(small_db, atoms)
        assert plan is not None and plan.nothing_pruned


class TestAgainstMorselMerge:
    """Pruned merges must also match an *unpruned morsel* merge -- the
    partition the process pool would have run without pruning: both
    equal the single shot."""

    @cases("pruning::test_q6_matches_merged_partition")
    def test_q6_matches_merged_partition(self, matrix, cells):
        matrix.check(cells)


class TestProcessPool:
    @cases("pruning::test_pool_matches_single_shot")
    def test_pool_matches_single_shot(self, matrix, cells):
        matrix.check(cells)

    def test_pool_all_pruned_edge(self, matrix):
        matrix.check(cells("pruning::test_pool_all_pruned_edge"))

    def test_pool_disabled_pruning_still_matches(self, matrix):
        """A method without prune atoms (the group-by) is never pruned
        and still matches the direct engine call."""
        matrix.check(cells("pruning::test_pool_disabled_pruning_still_matches"))


class TestPropertySweep:
    """Satellite: arbitrary selection thresholds generate arbitrary
    prune shapes (including all-pruned and nothing-pruned); pruned,
    single-shot and merged-morsel execution must agree bit-for-bit."""

    @given(
        fractions=st.tuples(
            *[st.floats(-0.2, 1.2, allow_nan=False)
              for _ in SELECTION_PREDICATE_COLUMNS]
        ),
        engine_index=st.integers(0, len(ALL_ENGINES) - 1),
        pieces=st.integers(1, 6),
    )
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_arbitrary_thresholds_are_bit_identical(
        self, sorted_db, fractions, engine_index, pieces
    ):
        table = sorted_db.table("lineitem")
        thresholds = []
        for column, fraction in zip(SELECTION_PREDICATE_COLUMNS, fractions):
            values = np.asarray(table[column])
            lo, hi = float(values.min()), float(values.max())
            # fraction < 0 lands below the min (all-pruned candidate),
            # > 1 above the max (nothing-pruned).
            thresholds.append(lo + fraction * (hi - lo))
        kwargs = {"selectivity": None, "thresholds": tuple(thresholds)}
        engine = ALL_ENGINES[engine_index]()

        baseline = engine.run_selection(sorted_db, **kwargs)
        plan, pruned = pruned_result(engine, sorted_db, "run_selection", kwargs)
        assert plan is not None
        if pruned is not None:
            assert_bit_identical(pruned, baseline, f"thresholds={thresholds}")

        n_rows = table.n_rows
        partials = [
            engine.run_selection(sorted_db, row_range=(lo, hi), **kwargs)
            for lo, hi in morsel_ranges(n_rows, pieces)
        ]
        merged = engine.merge_morsels(sorted_db, "run_selection", kwargs, partials)
        assert_bit_identical(merged, baseline, f"merged pieces={pieces}")
