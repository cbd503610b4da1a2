"""Engine-interface helper tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines import (
    ALL_ENGINES,
    JOIN_SPECS,
    Engine,
    InterpreterEngine,
    TectorwiseEngine,
    TyperEngine,
    engine_by_name,
    line_density,
    projection_columns,
    selection_predicate_masks,
    selection_thresholds,
)
from repro.engines.morsel import gather_lines


WORKLOADS = ("projection", "selection", "join", "groupby", "q1", "q6", "q9", "q18")


class TestOneDataPassPerWorkload:
    """Every workload is executed and finished by one function, defined
    on ``Engine``; the engines differ only in their ``_cost_*``
    recorders.  A pasted per-engine copy shows up here as a failure."""

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_run_and_finish_are_the_shared_functions(self, workload):
        micro = workload in WORKLOADS[:4]
        sharers = [TyperEngine, TectorwiseEngine]
        if micro:
            sharers += [InterpreterEngine, *ALL_ENGINES]
        for name in (f"run_{workload}", f"_finish_{workload}"):
            shared = getattr(Engine, name)
            for engine_cls in sharers:
                assert getattr(engine_cls, name) is shared, (engine_cls, name)
        # Memoized once, on the base: one wrapper around one function.
        run = getattr(Engine, f"run_{workload}")
        assert run._execcache_wrapped
        assert not getattr(run.__wrapped__, "_execcache_wrapped", False)

    @pytest.mark.parametrize("engine_cls", ALL_ENGINES, ids=lambda cls: cls.name)
    def test_engines_supply_only_cost_recorders(self, engine_cls):
        for workload in WORKLOADS:
            if getattr(engine_cls, f"run_{workload}") is getattr(Engine, f"run_{workload}"):
                assert callable(getattr(engine_cls, f"_cost_{workload}"))


def test_engine_by_name_shares_one_engine_per_name():
    assert engine_by_name("Typer") is engine_by_name("Typer")
    assert type(engine_by_name("DBMS R")) is ALL_ENGINES[0]
    with pytest.raises(ValueError) as unknown:
        engine_by_name("Postgres")
    assert str(unknown.value) == (
        "unknown engine 'Postgres'; expected one of "
        "['DBMS R', 'DBMS C', 'Typer', 'Tectorwise']"
    )


class TestProjectionColumns:
    def test_degree_one_to_four(self):
        assert projection_columns(1) == ("l_extendedprice",)
        assert projection_columns(4) == (
            "l_extendedprice", "l_discount", "l_tax", "l_quantity",
        )

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            projection_columns(0)
        with pytest.raises(ValueError):
            projection_columns(5)


class TestSelectionThresholds:
    @pytest.mark.parametrize("selectivity", [0.1, 0.5, 0.9])
    def test_individual_selectivity_achieved(self, small_db, selectivity):
        thresholds = selection_thresholds(small_db, selectivity)
        assert set(thresholds) == {"l_shipdate", "l_commitdate", "l_receiptdate"}
        for column, (name, mask) in zip(
            thresholds, selection_predicate_masks(small_db, thresholds)
        ):
            assert name == column
            assert mask.mean() == pytest.approx(selectivity, abs=0.02)

    def test_rejects_degenerate_selectivity(self, small_db):
        with pytest.raises(ValueError):
            selection_thresholds(small_db, 0.0)
        with pytest.raises(ValueError):
            selection_thresholds(small_db, 1.0)


class TestLineDensity:
    def test_dense_gather(self):
        assert line_density(np.arange(800), 800) == pytest.approx(1.0)

    def test_sparse_gather(self):
        # One value per line of 8: touches every line.
        assert line_density(np.arange(0, 800, 8), 800) == pytest.approx(1.0)
        # One value per 16: touches half the lines.
        assert line_density(np.arange(0, 800, 16), 800) == pytest.approx(0.5)

    def test_empty_indices(self):
        assert line_density(np.array([], dtype=np.int64), 100) == 1.0

    def test_bounded_by_one(self):
        indices = np.repeat(np.arange(10), 50)
        assert 0.0 < line_density(indices, 80) <= 1.0


@st.composite
def gathers(draw):
    """A morsel ``[lo, hi)`` with unaligned bounds and row indices in
    it: unsorted, possibly repeated, possibly empty."""
    lo = draw(st.integers(min_value=0, max_value=500))
    hi = lo + draw(st.integers(min_value=1, max_value=700))
    indices = draw(
        st.lists(st.integers(min_value=lo, max_value=hi - 1), max_size=200)
    )
    return np.array(indices, dtype=np.int64), lo, hi


class TestGatherLines:
    @given(gathers())
    @settings(max_examples=200, deadline=None)
    def test_touched_equals_distinct_lines(self, case):
        indices, lo, hi = case
        touched, total = gather_lines(indices, lo, hi)
        assert touched == len(np.unique(indices // 8))
        assert total == -(-hi // 8) - (-(-lo // 8))

    @given(gathers())
    @settings(max_examples=50, deadline=None)
    def test_line_density_shares_the_count(self, case):
        indices, _, hi = case
        expected = len(np.unique(indices // 8)) / -(-hi // 8) if len(indices) else 1.0
        assert line_density(indices, hi) == min(1.0, expected)

    def test_indices_outside_the_morsel_are_rejected(self):
        with pytest.raises(IndexError):
            gather_lines(np.array([63]), 64, 128)
        with pytest.raises(IndexError):
            gather_lines(np.array([128]), 64, 128)


class TestJoinSpecs:
    def test_paper_join_definitions(self):
        """Section 2: the three join micro-benchmarks."""
        assert JOIN_SPECS["small"].build_table == "nation"
        assert JOIN_SPECS["small"].probe_table == "supplier"
        assert JOIN_SPECS["medium"].build_table == "supplier"
        assert JOIN_SPECS["medium"].probe_table == "partsupp"
        assert JOIN_SPECS["large"].build_table == "orders"
        assert JOIN_SPECS["large"].probe_table == "lineitem"
        assert JOIN_SPECS["large"].sum_columns == (
            "l_extendedprice", "l_discount", "l_tax", "l_quantity",
        )


class TestSimdGuard:
    def test_engines_without_simd_reject_it(self, small_db):
        engine = TyperEngine()
        assert not engine.supports_simd
        with pytest.raises(ValueError, match="SIMD"):
            engine.run_projection(small_db, 2, simd=True)

    def test_unsupported_query_rejected(self, small_db):
        with pytest.raises(ValueError):
            TyperEngine().run_tpch(small_db, "Q3")

    def test_predication_limited_to_q6(self, small_db):
        with pytest.raises(ValueError):
            TyperEngine().run_tpch(small_db, "Q1", predicated=True)

    def test_unknown_join_size(self, small_db):
        with pytest.raises(ValueError):
            TyperEngine().run_join(small_db, "huge")


class TestPartitionRows:
    """The table a bound call partitions into morsels, from the
    normalized keyword items every caller passes."""

    def test_join_partitions_its_probe_table(self, tiny_db):
        for size, spec in JOIN_SPECS.items():
            rows = TyperEngine().partition_rows(tiny_db, "run_join", (("size", size),))
            assert rows == tiny_db.table(spec.probe_table).n_rows

    @pytest.mark.parametrize("kwargs", [{"size": "huge"}, {}], ids=["unknown", "missing"])
    def test_unknown_join_size_raises(self, tiny_db, kwargs):
        with pytest.raises(ValueError, match="unknown join size"):
            TyperEngine().partition_rows(tiny_db, "run_join", kwargs)

    def test_compiled_plan_partitions_its_driving_table(self, tiny_db):
        from repro.sql import plan_sql

        plan = plan_sql(
            "SELECT o_custkey, SUM(o_totalprice) FROM orders "
            "WHERE o_totalprice > 1000 GROUP BY o_custkey"
        )
        rows = TyperEngine().partition_rows(tiny_db, "run_compiled", {"plan": plan})
        assert rows == tiny_db.table("orders").n_rows != tiny_db.table("lineitem").n_rows

    def test_everything_else_partitions_lineitem(self, tiny_db):
        rows = TyperEngine().partition_rows(tiny_db, "run_q6", {})
        assert rows == tiny_db.table("lineitem").n_rows
