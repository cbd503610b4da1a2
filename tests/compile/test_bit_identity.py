"""Compiled programs vs hand-wired templates: bit-identical answers.

The compiler is only trustworthy if, on the queries the hand-wired
engine paths already answer, it produces the *same bits* -- same
IEEE-754 doubles, not approximately-equal floats.  This matrix runs
TPC-H Q1 and Q6 (documented texts) plus flattened forms of Q9 and Q18
through ``run_compiled`` on every engine and checks the compiled
exact totals against the hand-wired values (bit for bit on the
ExactSum-based engines, at ulp-scale tolerance on the two reference
engines -- see ``REFERENCE_ENGINES``), then re-checks the compiled
path under morsel partitionings and under the process-pool executor
(``repro.core.parallel.WorkerPool``).

Q9 and Q18 are flattened (``matrix.cells.Q9_FLAT`` / ``Q18_FLAT``)
because their documented texts use shapes the compiler deliberately
declines (a derived table with EXTRACT(YEAR), an IN (subquery)
semi-join); the flattened forms keep the aggregates whose totals the
hand-wired runners report.  The tiling and pool cells are declared in
the matrix (``tests/matrix``, database ``small``); the tests here keep
their ids.
"""

from __future__ import annotations

import math

from matrix.cells import Q9_FLAT, Q18_FLAT
from matrix.suites import cases

from repro.core.exactsum import ExactSum
from repro.sql.api import plan_sql
from repro.tpch import schema as sc
from repro.tpch.sql import TPCH_SQL


def compiled(engine, db, sql):
    """(program, result) for one compiled single-shot run."""
    from repro.compile.program import compiled_program

    plan = plan_sql(sql)
    return compiled_program(plan), engine.run_compiled(db, plan)


def exact_total(program, result, alias: str) -> float:
    """The bit-exact grand total of the SUM output named ``alias``."""
    out = next(o for o in program.outputs if o.name == alias)
    slot = program._slot_of(out.expr)
    return ExactSum(result.details["exact_totals"][slot.name]).total()


#: The interpreter engines ("DBMS R"/"DBMS C") report *reference*
#: values computed with numpy's pairwise summation; the compiled path
#: (like Typer and Tectorwise) reports correctly-rounded ExactSum
#: totals.  Pairwise summation is accurate but not correctly rounded,
#: so those engines are compared at an ulp-scale tolerance while the
#: ExactSum engines are compared bit for bit.
REFERENCE_ENGINES = {"DBMS R", "DBMS C"}
RELTOL = 1e-12


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=RELTOL, abs_tol=1e-9)


class TestAgainstHandWired:
    def test_q1_totals(self, small_db, engine):
        hand = engine.run_q1(small_db)
        program, result = compiled(engine, small_db, TPCH_SQL["Q1"])
        if engine.name in REFERENCE_ENGINES:
            # Per-group reference dict keyed (returnflag, linestatus).
            by_key = {
                (sc.RETURNFLAG_CODES[row[0]], sc.LINESTATUS_CODES[row[1]]): dict(
                    zip(result.value["columns"], row)
                )
                for row in result.value["rows"]
            }
            assert by_key.keys() == hand.value.keys()
            for key, ref in hand.value.items():
                row = by_key[key]
                assert row["count_order"] == ref["count"], key
                # quantities are integer-valued: exact on both paths
                assert row["sum_qty"] == ref["sum_qty"], key
                for alias in ("sum_base_price", "sum_disc_price", "sum_charge"):
                    assert _close(row[alias], ref[alias]), (key, alias)
        else:
            for alias in (
                "sum_qty", "sum_base_price", "sum_disc_price", "sum_charge"
            ):
                assert exact_total(program, result, alias) == hand.value[alias], alias
            assert result.details["groups"] == hand.value["groups"]

    def test_q6_revenue(self, small_db, engine):
        hand = engine.run_q6(small_db)
        program, result = compiled(engine, small_db, TPCH_SQL["Q6"])
        (row,) = result.value["rows"]
        assert row[0] == exact_total(program, result, "revenue")
        if engine.name in REFERENCE_ENGINES:
            assert _close(row[0], hand.value)
        else:
            assert row[0] == hand.value

    def test_q9_profit(self, small_db, engine):
        hand = engine.run_q9(small_db)
        program, result = compiled(engine, small_db, Q9_FLAT)
        assert result.details["groups"] > 0
        if engine.name in REFERENCE_ENGINES:
            # Reference dict keyed (nation index, order year); the
            # flattened query folds the years into one nation total.
            by_nation: dict[int, list[float]] = {}
            for (nation, _year), profit in hand.value.items():
                by_nation.setdefault(nation, []).append(profit)
            for name, profit in result.value["rows"]:
                nation = sc.NATION_NAMES.index(name)
                assert _close(profit, math.fsum(by_nation.pop(nation))), name
            assert not by_nation, "compiled result missed nations"
        else:
            assert exact_total(program, result, "profit") == hand.value

    def test_q18_winners(self, small_db, engine):
        hand = engine.run_q18(small_db)
        program, result = compiled(engine, small_db, Q18_FLAT)
        if engine.name in REFERENCE_ENGINES:
            # Reference dict: winner orderkey -> total quantity.
            # Quantities are integer-valued, so equality is exact even
            # across the two summation orders.
            assert hand.value, "Q18 winners must exist at this scale"
            got = {int(orderkey): qty for orderkey, qty in result.value["rows"]}
            assert got == hand.value
        else:
            assert hand.value["winners"] > 0, (
                "Q18 needs a scale factor where winners exist or the "
                "comparison is vacuous"
            )
            assert result.details["groups"] == hand.value["winners"]
            assert len(result.value["rows"]) == hand.value["winners"]
            assert (
                exact_total(program, result, "qty") == hand.value["sum_winner_qty"]
            )


class TestCompiledMorsels:
    """Compiled runs must obey the same merge contract as hand-wired
    ones: any tiling of the driving table merges to the single-shot
    result exactly -- values, tuples, work, operator attribution."""

    @cases("compile::test_partitionings_match_single_shot")
    def test_partitionings_match_single_shot(self, matrix, cells):
        matrix.check(cells)


class TestProcessExecutor:
    """The spawn-based worker pool ships compiled partials across
    process boundaries; the merged answer must stay bit-identical."""

    @cases("compile::test_pool_matches_single_shot")
    def test_pool_matches_single_shot(self, matrix, cells):
        matrix.check(cells)

    def test_pool_agrees_with_hand_wired_totals(self, small_db, matrix):
        from repro.compile.program import compiled_program
        from repro.engines import TyperEngine

        engine = TyperEngine()
        plan = plan_sql(TPCH_SQL["Q1"])
        program = compiled_program(plan)
        pooled = matrix.pool("small").run_query(engine, "run_compiled", plan=plan)
        hand = engine.run_q1(small_db)
        assert exact_total(program, pooled, "sum_qty") == hand.value["sum_qty"]
