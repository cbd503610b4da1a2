"""Workload-driver tests: sweeps, cross-checks and chain comparison."""

import pytest

from repro.engines import (
    HPE_ENGINES,
    ColumnStoreEngine,
    RowStoreEngine,
    TectorwiseEngine,
    TyperEngine,
)
from repro.tpch.queries import q1_reference, q18_reference
from repro.workloads.tpch_queries import RESULT_CHECKS
from repro.workloads import (
    hash_chain_comparison,
    join_chain_stats,
    normalized_large_join,
    normalized_response_times,
    run_groupby,
    run_join_sweep,
    run_predicated_q6,
    run_predication_comparison,
    run_projection_sweep,
    run_selection_sweep,
    run_tpch,
)


@pytest.fixture(scope="module")
def engines():
    return [engine_cls() for engine_cls in HPE_ENGINES]


class TestProjectionSweep:
    def test_covers_all_engines_and_degrees(self, small_db, engines, profiler):
        reports = run_projection_sweep(small_db, engines, profiler)
        assert set(reports) == {"Typer", "Tectorwise"}
        for per_degree in reports.values():
            assert set(per_degree) == {1, 2, 3, 4}

    def test_normalized_response_base_is_one(self, small_db, engines, profiler):
        reports = run_projection_sweep(small_db, engines, profiler, degrees=(4,))
        normalized = normalized_response_times(reports)
        assert normalized["Typer"] == pytest.approx(1.0)
        assert normalized["Tectorwise"] > 0


class TestSelectionSweep:
    def test_covers_selectivities(self, small_db, engines, profiler):
        reports = run_selection_sweep(small_db, engines, profiler)
        for per_sel in reports.values():
            assert set(per_sel) == {0.1, 0.5, 0.9}

    def test_predicated_variant(self, small_db, engines, profiler):
        reports = run_selection_sweep(
            small_db, engines, profiler, selectivities=(0.5,), predicated=True
        )
        for per_sel in reports.values():
            assert not per_sel[0.5].work.branch_streams


class TestJoinSweep:
    def test_covers_sizes(self, small_db, engines, profiler):
        reports = run_join_sweep(small_db, engines, profiler)
        for per_size in reports.values():
            assert set(per_size) == {"small", "medium", "large"}

    def test_normalized_large_join(self, small_db, engines, profiler):
        reports = run_join_sweep(small_db, engines, profiler, sizes=("large",))
        normalized = normalized_large_join(reports)
        assert normalized["Typer"] == pytest.approx(1.0)

    def test_chain_stats_accessor(self, small_db):
        stats = join_chain_stats(small_db, TyperEngine())
        assert stats.n_keys == small_db["orders"].n_rows


class TestGroupBy:
    def test_runs_on_all_engines(self, small_db, engines, profiler):
        reports = run_groupby(small_db, engines, profiler)
        assert set(reports) == {"Typer", "Tectorwise"}

    def test_chain_comparison_reproduces_paper_shape(self, small_db):
        comparison = hash_chain_comparison(small_db)
        assert comparison.join.max <= 2
        assert comparison.groupby.max > comparison.join.max
        assert comparison.groupby_more_irregular


class TestTpch:
    def test_runs_and_verifies(self, small_db, engines, profiler):
        reports = run_tpch(small_db, engines, profiler)
        for per_query in reports.values():
            assert set(per_query) == {"Q1", "Q6", "Q9", "Q18"}

    def test_query_subset(self, small_db, engines, profiler):
        reports = run_tpch(small_db, engines, profiler, queries=("Q6",))
        assert set(reports["Typer"]) == {"Q6"}

    def test_predicated_q6(self, small_db, profiler):
        reports = run_predicated_q6(small_db, TectorwiseEngine(), profiler)
        assert set(reports) == {"branched", "predicated"}
        assert not reports["predicated"].work.branch_streams

    def test_interpreters_verify_exactly(self, tiny_db, profiler):
        engines = [RowStoreEngine(), ColumnStoreEngine()]
        reports = run_tpch(tiny_db, engines, profiler)
        assert set(reports) == {"DBMS R", "DBMS C"}


class TestResultChecks:
    """Interpreter values are the reference answers themselves, so a
    wrong one with the right shape must fail."""

    def test_wrong_q1_groups_fail(self, small_db):
        reference = q1_reference(small_db)
        wrong = {
            key: dict(group, sum_charge=group["sum_charge"] + 1.0)
            for key, group in reference.items()
        }
        assert len(wrong) == 4
        assert RESULT_CHECKS["Q1"](small_db, reference)
        assert not RESULT_CHECKS["Q1"](small_db, wrong)

    def test_wrong_q18_winners_fail(self, small_db):
        reference = q18_reference(small_db)
        assert reference
        wrong = {orderkey: total + 1.0 for orderkey, total in reference.items()}
        assert RESULT_CHECKS["Q18"](small_db, reference)
        assert not RESULT_CHECKS["Q18"](small_db, wrong)


class TestPredicationComparison:
    def test_structure(self, small_db, profiler):
        comparison = run_predication_comparison(small_db, TyperEngine(), profiler)
        assert set(comparison) == {0.1, 0.5, 0.9}
        for variants in comparison.values():
            assert set(variants) == {"branched", "predicated"}
