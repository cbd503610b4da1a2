"""Tests for rollup materialization (:mod:`repro.rollup.build`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exactsum import ExactSum
from repro.rollup import build_and_attach, build_rollup, default_lineitem_spec
from repro.rollup.build import RollupSpec, evaluate_expression
from repro.rollup.table import AggregateSpec


class TestExpressions:
    def test_projection_prefix_matches_engine_arithmetic(self, tiny_db):
        table = tiny_db.table("lineitem")
        got = evaluate_expression(table, "proj:2", 0, 100)
        expected = np.zeros(100)
        for column in ("l_extendedprice", "l_discount"):
            expected = expected + table[column][:100]
        np.testing.assert_array_equal(got, expected)

    def test_derived_q1_measures(self, tiny_db):
        table = tiny_db.table("lineitem")
        price = table["l_extendedprice"][:50]
        discount = table["l_discount"][:50]
        tax = table["l_tax"][:50]
        np.testing.assert_array_equal(
            evaluate_expression(table, "disc_price", 0, 50),
            price * (1.0 - discount),
        )
        np.testing.assert_array_equal(
            evaluate_expression(table, "charge", 0, 50),
            price * (1.0 - discount) * (1.0 + tax),
        )

    def test_raw_column(self, tiny_db):
        table = tiny_db.table("lineitem")
        np.testing.assert_array_equal(
            evaluate_expression(table, "col:l_quantity", 5, 25),
            np.asarray(table["l_quantity"][5:25]),
        )

    def test_unknown_expression_raises(self, tiny_db):
        table = tiny_db.table("lineitem")
        with pytest.raises(ValueError, match="unknown rollup expression"):
            evaluate_expression(table, "median:x", 0, 10)
        with pytest.raises(ValueError, match="projection degree"):
            evaluate_expression(table, "proj:9", 0, 10)


class TestRollupSpec:
    def test_duplicate_aggregate_names_raise(self):
        with pytest.raises(ValueError, match="duplicate aggregate names"):
            RollupSpec(
                name="x",
                aggregates=(
                    AggregateSpec("a", "count"),
                    AggregateSpec("a", "sum", "proj:1"),
                ),
            )


class TestBuildRollup:
    def test_build_is_deterministic(self, rollup_db):
        spec = default_lineitem_spec()
        first = build_rollup(rollup_db, spec)
        second = build_rollup(rollup_db, spec)
        np.testing.assert_array_equal(first.partition_ids, second.partition_ids)
        selected = np.arange(first.n_rows)
        for agg in ("sum_qty", "sum_charge"):
            assert first.sum_units(agg, selected) == second.sum_units(agg, selected)

    def test_cells_match_direct_exact_sums(self, rollup_db):
        rollup = rollup_db.rollup(rollup_db.rollup_names[0])
        table = rollup_db.table("lineitem")
        partitioning = table.partitioning
        flags = np.asarray(table["l_returnflag"])
        status = np.asarray(table["l_linestatus"])
        quantity = np.asarray(table["l_quantity"])
        for row in range(rollup.n_rows):
            p = int(rollup.partition_ids[row])
            lo, hi = partitioning.partition_range(p)
            member = (
                (flags[lo:hi] == rollup.key_columns["l_returnflag"][row])
                & (status[lo:hi] == rollup.key_columns["l_linestatus"][row])
            )
            expected = ExactSum.of_array(quantity[lo:hi][member])
            assert rollup.sum_units("sum_qty", [row]) == expected
            assert rollup.plain_column("row_count")[row] == int(member.sum())

    def test_min_max_partials(self, rollup_db):
        rollup = rollup_db.rollup(rollup_db.rollup_names[0])
        table = rollup_db.table("lineitem")
        base_price = np.asarray(table["l_extendedprice"])
        assert float(rollup.plain_column("min_base_price").min()) == base_price.min()
        assert float(rollup.plain_column("max_base_price").max()) == base_price.max()

    def test_unpartitioned_table_is_one_partition(self, tiny_db):
        rollup = build_rollup(tiny_db, default_lineitem_spec())
        assert rollup.partition_column is None
        assert rollup.n_partitions == 1
        assert set(rollup.partition_ids) == {0}
        assert int(rollup.plain_column("row_count").sum()) == (
            tiny_db.table("lineitem").n_rows
        )

    def test_keyless_rollup_is_one_row_per_partition(self, rollup_db):
        spec = RollupSpec(
            name="totals",
            keys=(),
            aggregates=(AggregateSpec("sum_qty", "sum", "col:l_quantity"),),
        )
        rollup = build_rollup(rollup_db, spec)
        non_empty = int(
            (rollup_db.table("lineitem").partitioning.row_counts > 0).sum()
        )
        assert rollup.n_rows == non_empty
        total = rollup.sum_units("sum_qty", np.arange(rollup.n_rows)).total()
        expected = ExactSum.of_array(
            np.asarray(rollup_db.table("lineitem")["l_quantity"])
        ).total()
        assert total == expected


class TestBuildAndAttach:
    def test_registers_in_catalog(self, tiny_db):
        from repro.rollup import PartitionSpec, partitioned_database

        db = partitioned_database(tiny_db, PartitionSpec("l_shipdate", (2300.0,)))
        rollup = build_and_attach(db)
        assert db.rollup_names == (rollup.name,)
        assert db.rollup(rollup.name) is rollup

    def test_rollup_for_unknown_base_table_raises(self, tiny_db):
        with pytest.raises(KeyError, match="no table"):
            build_rollup(tiny_db, RollupSpec(name="x", table="nope"))
