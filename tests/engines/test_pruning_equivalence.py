"""Pruned execution must be bit-identical to unpruned execution.

Zone-map pruning (:mod:`repro.core.pruning`) promises the same contract
as the morsel and encoding layers: skipping chunks changes *nothing
observable* -- values, tuple counts, work profiles and per-operator
attribution all match the single-shot run, for every engine, in the
thread path and through the process pool, including the all-pruned and
nothing-pruned edges.  A hypothesis sweep extends the check to
arbitrary selection thresholds (and hence arbitrary prune shapes).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import pruning
from repro.core.parallel import WorkerPool
from repro.engines import ALL_ENGINES, TyperEngine, engine_by_name
from repro.engines.morsel import morsel_ranges
from repro.tpch.schema import SELECTION_PREDICATE_COLUMNS

#: Prunable workloads exercised across the full engine matrix.
WORKLOADS = [
    ("run_q6", {}),
    ("run_q6", {"predicated": True}),
    ("run_q1", {}),
    ("run_selection", {"selectivity": 0.1}),
    ("run_selection", {"selectivity": 0.02, "predicated": True}),
]

WORKLOAD_IDS = [
    f"{method[len('run_'):]}-{'-'.join(f'{k}{v}' for k, v in kwargs.items()) or 'default'}"
    for method, kwargs in WORKLOADS
]


@pytest.fixture(scope="module", params=ALL_ENGINES, ids=lambda cls: cls.name)
def engine(request):
    return request.param()


def assert_identical(pruned, baseline, context: str) -> None:
    assert pruned.value == baseline.value, context
    assert pruned.tuples == baseline.tuples, context
    assert pruned.work == baseline.work, f"work profile differs: {context}"
    assert set(pruned.operator_work) == set(baseline.operator_work), context
    for name, profile in baseline.operator_work.items():
        assert pruned.operator_work[name] == profile, f"{context}: {name}"


def pruned_result(engine, db, method, kwargs):
    atoms = pruning.atoms_for(db, method, kwargs)
    plan = pruning.compute_prune_plan(db, atoms)
    return plan, (
        None if plan is None
        else pruning.execute_pruned(engine, db, method, kwargs, plan)
    )


class TestThreadMatrix:
    @pytest.mark.parametrize("method,kwargs", WORKLOADS, ids=WORKLOAD_IDS)
    def test_pruned_equals_single_shot(self, engine, sorted_db, method, kwargs):
        plan, pruned = pruned_result(engine, sorted_db, method, kwargs)
        assert plan is not None
        if method != "run_q1":
            # Q1's predicate keeps almost everything; the selective
            # workloads must actually prune for the test to mean much.
            assert plan.chunks_pruned > 0, "fixture stopped pruning"
        baseline = getattr(engine, method)(sorted_db, **kwargs)
        assert_identical(pruned, baseline, f"{engine.name} {method} {kwargs}")
        assert pruned.details["pruning"]["morsels_pruned"] == plan.chunks_pruned

    def test_all_pruned_edge(self, engine, shifted_db):
        plan, pruned = pruned_result(engine, shifted_db, "run_q6", {})
        assert plan is not None and plan.kept_rows == 0
        baseline = engine.run_q6(shifted_db)
        assert_identical(pruned, baseline, f"{engine.name} all-pruned q6")
        assert pruned.tuples == 0 or pruned.value == baseline.value

    def test_nothing_pruned_on_shuffled_data(self, small_db):
        atoms = pruning.atoms_for(small_db, "run_q6", {})
        plan = pruning.compute_prune_plan(small_db, atoms)
        assert plan is not None and plan.nothing_pruned


class TestAgainstMorselMerge:
    """Pruned merges must also match an *unpruned morsel* merge -- the
    partition the process pool would have run without pruning."""

    @pytest.mark.parametrize("pieces", [1, 3, 7])
    def test_q6_matches_merged_partition(self, sorted_db, pieces):
        engine = TyperEngine()
        plan, pruned = pruned_result(engine, sorted_db, "run_q6", {})
        assert plan is not None and plan.chunks_pruned > 0
        n_rows = sorted_db.table("lineitem").n_rows
        partials = [
            engine.run_q6(sorted_db, row_range=(lo, hi))
            for lo, hi in morsel_ranges(n_rows, pieces)
        ]
        merged = engine.merge_morsels(sorted_db, "run_q6", {}, partials)
        assert_identical(pruned, merged, f"pieces={pieces}")


class TestProcessPool:
    @pytest.fixture(scope="class")
    def pool(self, sorted_db):
        with WorkerPool(sorted_db, n_workers=2) as pool:
            yield pool

    @pytest.mark.parametrize("method,kwargs", WORKLOADS, ids=WORKLOAD_IDS)
    def test_pool_matches_single_shot(self, pool, sorted_db, method, kwargs):
        engine = engine_by_name("Tectorwise")
        result = pool.run_query(engine, method, **kwargs)
        baseline = getattr(engine, method)(sorted_db, **kwargs)
        assert_identical(result, baseline, f"pool {method} {kwargs}")
        if method != "run_q1":
            assert result.details["pruning"]["morsels_pruned"] > 0

    def test_pool_all_pruned_edge(self, shifted_db):
        engine = TyperEngine()
        baseline = engine.run_q6(shifted_db)
        with WorkerPool(shifted_db, n_workers=2) as pool:
            result = pool.run_query(engine, "run_q6")
        assert_identical(result, baseline, "pool all-pruned q6")
        assert result.details["pruning"]["rows_pruned"] == (
            shifted_db.table("lineitem").n_rows
        )

    def test_pool_disabled_pruning_still_matches(self, pool, sorted_db):
        """A method without prune atoms (the group-by) is never pruned
        and still matches the direct engine call."""
        engine = TyperEngine()
        baseline = engine.run_groupby(sorted_db)
        result = pool.run_query(engine, "run_groupby")
        assert_identical(result, baseline, "pool groupby, no prune atoms")
        assert "pruning" not in result.details


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
            assert_identical(pruned, baseline, f"thresholds={thresholds}")

        n_rows = table.n_rows
        partials = [
            engine.run_selection(sorted_db, row_range=(lo, hi), **kwargs)
            for lo, hi in morsel_ranges(n_rows, pieces)
        ]
        merged = engine.merge_morsels(sorted_db, "run_selection", kwargs, partials)
        assert_identical(merged, baseline, f"merged pieces={pieces}")
