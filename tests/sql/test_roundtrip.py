"""Round-trip: every documented SQL string parses, plans, lowers and
executes on each engine with results identical to the hand-wired path."""

import os
import subprocess
import sys

import pytest
from matrix.cells import assert_bit_identical

from repro.engines import ALL_ENGINES, JOIN_SIZES, SELECTION_SELECTIVITIES
from repro.sql import SqlError, compile_sql, execute_sql
from repro.tpch.sql import GROUPBY_SQL, JOIN_SQL, TPCH_SQL, projection_sql, selection_sql


#: Variants of documented statements that match no template: an output
#: alias, a regrouped sum, swapped FROM order and join keys, reordered
#: or omitted GROUP BY outputs.  Each runs compiled.  Name -> (variant,
#: the documented statement whose single value it must reproduce, or
#: None for a GROUP BY variant, which returns its groups).
VARIANTS = {
    "projection-alias": (
        "SELECT SUM(l_extendedprice) AS s FROM lineitem", projection_sql(1),
    ),
    "projection-regrouped": (
        "SELECT SUM(l_extendedprice + (l_discount + l_tax)) FROM lineitem",
        projection_sql(3),
    ),
    "projection-regrouped-alias": (
        "SELECT SUM((l_extendedprice + l_discount) + (l_tax + l_quantity)) "
        "AS total FROM lineitem",
        projection_sql(4),
    ),
    "join-alias": (
        "SELECT SUM(s_acctbal + s_suppkey) AS total "
        "FROM supplier, nation WHERE s_nationkey = n_nationkey",
        JOIN_SQL["small"],
    ),
    "join-swapped-from": (
        "SELECT SUM(s_acctbal + s_suppkey) "
        "FROM nation, supplier WHERE s_nationkey = n_nationkey",
        JOIN_SQL["small"],
    ),
    "join-swapped-from-and-keys": (
        "SELECT SUM(ps_availqty + ps_supplycost) "
        "FROM supplier, partsupp WHERE s_suppkey = ps_suppkey",
        JOIN_SQL["medium"],
    ),
    "join-swapped-from-regrouped": (
        "SELECT SUM(l_extendedprice + (l_discount + l_tax) + l_quantity) "
        "FROM orders, lineitem WHERE o_orderkey = l_orderkey",
        JOIN_SQL["large"],
    ),
    "groupby-alias": (
        "SELECT l_partkey, l_returnflag, SUM(l_extendedprice) AS revenue "
        "FROM lineitem GROUP BY l_partkey, l_returnflag",
        None,
    ),
    "groupby-reordered": (
        "SELECT l_returnflag, l_partkey, SUM(l_extendedprice) "
        "FROM lineitem GROUP BY l_partkey, l_returnflag",
        None,
    ),
    "groupby-omitted": (
        "SELECT SUM(l_extendedprice) FROM lineitem "
        "GROUP BY l_partkey, l_returnflag",
        None,
    ),
}


@pytest.fixture(scope="module")
def engines():
    return [engine_cls() for engine_cls in ALL_ENGINES]


class TestLowering:
    def test_tpch_binds_run_tpch(self):
        for query_id, sql in TPCH_SQL.items():
            bound = compile_sql(sql)
            assert bound.method == "run_tpch"
            assert bound.args == (query_id,)

    def test_joins_bind_by_size(self):
        for size in JOIN_SIZES:
            assert compile_sql(JOIN_SQL[size]).args == (size,)

    def test_projection_degrees(self):
        for degree in (1, 2, 3, 4):
            bound = compile_sql(projection_sql(degree))
            assert bound.method == "run_projection"
            assert bound.args == (degree,)

    def test_groupby(self):
        assert compile_sql(GROUPBY_SQL).method == "run_groupby"

    def test_selection_binds_literal_thresholds(self, tiny_db):
        bound = compile_sql(selection_sql(0.5, tiny_db))
        assert bound.method == "run_selection"
        kwargs = bound.call_kwargs()
        assert kwargs["selectivity"] is None
        assert len(kwargs["thresholds"]) == 3

    def test_unprofiled_aggregate_falls_back_to_the_compiler(self):
        # PR 9: aggregates with no hand-wired template lower to the
        # plan compiler instead of erroring.
        bound = compile_sql("SELECT SUM(o_totalprice) FROM orders")
        assert bound.method == "run_compiled"
        # Only the documented texts (and a selection with any
        # thresholds) run hand-wired; their variants compile.
        for name, (sql, _) in VARIANTS.items():
            assert compile_sql(sql).method == "run_compiled", name

    def test_valid_but_uncompilable_query_rejected(self):
        # A bare projection has nothing to aggregate, so neither a
        # template nor the compiler accepts it.
        with pytest.raises(SqlError, match="does not match any profiled"):
            compile_sql("SELECT o_orderkey FROM orders")

    def test_placeholder_selection_sql_rejected_by_parser(self):
        with pytest.raises(SqlError):
            compile_sql(selection_sql(0.5))  # no db -> placeholder literals


class TestExecutionRoundTrip:
    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_projection(self, tiny_db, engines, degree):
        bound = compile_sql(projection_sql(degree))
        for engine in engines:
            assert_bit_identical(
                bound.execute(engine, tiny_db),
                engine.run_projection(tiny_db, degree),
                (engine.name, degree),
            )

    @pytest.mark.parametrize("selectivity", SELECTION_SELECTIVITIES)
    def test_selection(self, tiny_db, engines, selectivity):
        bound = compile_sql(selection_sql(selectivity, tiny_db))
        for engine in engines:
            result_sql = bound.execute(engine, tiny_db)
            # The SQL path re-measures the nominal selectivity from the
            # data, so the label may differ by a percent; values and
            # tuple counts must be exact.
            hand = engine.run_selection(tiny_db, selectivity)
            assert repr(result_sql.value) == repr(hand.value), engine.name
            assert result_sql.tuples == hand.tuples, engine.name
            assert result_sql.workload.startswith("selection-")

    @pytest.mark.parametrize("size", JOIN_SIZES)
    def test_joins(self, tiny_db, engines, size):
        bound = compile_sql(JOIN_SQL[size])
        for engine in engines:
            assert_bit_identical(
                bound.execute(engine, tiny_db),
                engine.run_join(tiny_db, size),
                (engine.name, size),
            )

    def test_groupby(self, tiny_db, engines):
        bound = compile_sql(GROUPBY_SQL)
        for engine in engines:
            assert_bit_identical(
                bound.execute(engine, tiny_db),
                engine.run_groupby(tiny_db),
                engine.name,
            )

    @pytest.mark.parametrize("query_id", sorted(TPCH_SQL))
    def test_tpch(self, tiny_db, engines, query_id):
        bound = compile_sql(TPCH_SQL[query_id])
        for engine in engines:
            assert_bit_identical(
                bound.execute(engine, tiny_db),
                engine.run_tpch(tiny_db, query_id),
                (engine.name, query_id),
            )

    @pytest.mark.parametrize(
        "name", sorted(name for name, (_, doc) in VARIANTS.items() if doc)
    )
    def test_variant_returns_the_documented_value(self, tiny_db, engines, name):
        sql, documented = VARIANTS[name]
        variant, hand_wired = compile_sql(sql), compile_sql(documented)
        for engine in engines:
            table = variant.execute(engine, tiny_db).value
            (row,) = table["rows"]
            assert row == [hand_wired.execute(engine, tiny_db).value], engine.name

    def test_execute_sql_accepts_engine_names(self, tiny_db):
        result = execute_sql(projection_sql(1), "Typer", tiny_db)
        assert result.value == pytest.approx(
            float(tiny_db["lineitem"]["l_extendedprice"].sum())
        )

    def test_options_pass_through(self, tiny_db):
        result = execute_sql(
            TPCH_SQL["Q6"], "Tectorwise", tiny_db, predicated=True
        )
        reference = next(
            e for e in ALL_ENGINES if e.name == "Tectorwise"
        )().run_q6(tiny_db, predicated=True)
        assert repr(result.value) == repr(reference.value)


def test_cli_stops_quietly_on_a_closed_pipe():
    """``python -m repro.sql | head`` once ``head`` exits."""
    read, write = os.pipe()
    os.close(read)
    with os.fdopen(write, "wb") as stdout:
        done = subprocess.run(
            [sys.executable, "-m", "repro.sql"],
            stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    assert "Traceback" not in done.stderr and "Error" not in done.stderr, done.stderr
