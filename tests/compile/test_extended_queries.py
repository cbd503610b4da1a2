"""The six TPC-H queries unlocked by plan compilation.

Q3, Q5, Q10, Q12, Q14 and Q19 have no hand-wired template; lowering
falls back to the plan compiler and they run end-to-end on every
engine.  This suite checks the lowering route, cross-engine value
agreement, the morsel merge contract, the planner's dictionary-code
rewrites for string literals, and the diagnostics when compilation is
declined or disabled.
"""

from __future__ import annotations

import pytest
from matrix.cells import TILED, assert_bit_identical, tiled

from repro.engines import ALL_ENGINES
from repro.sql import plan as ir
from repro.sql.api import compile_sql, execute_sql, plan_sql
from repro.sql.errors import SqlError
from repro.tpch import schema as sc
from repro.tpch.sql import EXTENDED_TPCH_SQL, TPCH_SQL

QUERIES = sorted(EXTENDED_TPCH_SQL)


@pytest.fixture(autouse=True)
def _fresh_compile_caches():
    """Keep per-test compiler state independent: the compiled-program
    cache keys on plan equality, which is exactly what some of these
    tests vary."""
    from repro.compile.program import clear_compile_cache

    clear_compile_cache()
    yield
    clear_compile_cache()


class TestLowering:
    @pytest.mark.parametrize("qid", QUERIES)
    def test_extended_queries_bind_to_the_compiler(self, qid):
        bound = compile_sql(EXTENDED_TPCH_SQL[qid])
        assert bound.method == "run_compiled"
        assert bound.workload.startswith("compiled-lineitem")
        assert bound.plan is not None

    def test_documented_templates_keep_their_hand_wired_route(self):
        for qid, sql in TPCH_SQL.items():
            bound = compile_sql(sql)
            assert bound.method == "run_tpch", qid

    def test_binding_str_elides_the_plan(self):
        bound = compile_sql(EXTENDED_TPCH_SQL["Q5"])
        text = str(bound)
        assert "plan=<plan>" in text
        assert "Aggregate" not in text, "plan repr must not leak into the str"

    def test_no_binding_reports_the_supported_surface(self):
        # Bare projection with no aggregate: no template matches and
        # the compiler declines (nothing to aggregate).
        with pytest.raises(SqlError) as excinfo:
            compile_sql("SELECT l_orderkey FROM lineitem;")
        message = str(excinfo.value)
        assert "documented templates" in message
        assert "Q1->run_q1" in message  # the TPC-H runner surface
        assert "compiled fallback" in message
        assert "the compiler declined this plan" in message
        assert "nearest profiled workload by plan structure: projection-1" in message

    def test_in_subquery_decline_reason_is_specific(self):
        with pytest.raises(SqlError, match="IN \\(subquery\\)"):
            compile_sql(TPCH_SQL["Q18"].replace("c_custkey = o_custkey", "c_custkey = o_custkey AND o_totalprice > 0"))


class TestCrossEngine:
    @pytest.mark.parametrize("qid", QUERIES)
    def test_all_engines_return_the_same_value(self, tiny_db, qid):
        sql = EXTENDED_TPCH_SQL[qid]
        results = [execute_sql(sql, cls(), tiny_db) for cls in ALL_ENGINES]
        first = results[0]
        assert first.details["compiled"]["driving"] == "lineitem"
        for result in results[1:]:
            assert result.value == first.value
            assert result.tuples == first.tuples
            assert result.details["exact_totals"] == first.details["exact_totals"]

    def test_q5_decodes_nation_names(self, tiny_db):
        result = execute_sql(EXTENDED_TPCH_SQL["Q5"], ALL_ENGINES[0](), tiny_db)
        names = [row[0] for row in result.value["rows"]]
        assert names, "tiny db should produce at least one ASIA nation"
        assert set(names) <= set(sc.NATION_NAMES)

    def test_q12_groups_by_decoded_returnflag(self, tiny_db):
        result = execute_sql(EXTENDED_TPCH_SQL["Q12"], ALL_ENGINES[0](), tiny_db)
        flags = [row[0] for row in result.value["rows"]]
        assert set(flags) <= set(sc.RETURNFLAG_CODES)


class TestCompiledMorsels:
    @pytest.mark.parametrize("qid", QUERIES)
    def test_partitionings_match_single_shot(self, tiny_db, engine, qid):
        kwargs = {"plan": plan_sql(EXTENDED_TPCH_SQL[qid])}
        single = engine.run_compiled(tiny_db, **kwargs)
        for name in TILED:
            merged = tiled(engine, tiny_db, "run_compiled", kwargs, name)
            assert_bit_identical(merged, single, f"{engine.name} {qid} [{name}]")


class TestStringEquality:
    """The planner rewrites ``col = 'NAME'`` on dictionary-encoded
    columns into exact integer-code comparisons."""

    @staticmethod
    def _filters(node):
        found = []
        stack = [node]
        while stack:
            item = stack.pop()
            if isinstance(item, ir.Filter):
                found.extend(item.predicates)
            for field in getattr(item, "__dataclass_fields__", {}):
                child = getattr(item, field)
                if hasattr(child, "__dataclass_fields__"):
                    stack.append(child)
        return found

    def test_region_name_becomes_its_code(self):
        plan = plan_sql(
            "SELECT SUM(r_regionkey) FROM region WHERE r_name = 'ASIA';"
        )
        predicates = self._filters(plan)
        assert any(
            isinstance(p, ir.Compare)
            and p.op == "="
            and isinstance(p.right, ir.ConstExpr)
            and p.right.value == sc.REGION_NAMES.index("ASIA")
            for p in predicates
        ), predicates

    def test_inequality_keeps_the_operator(self):
        plan = plan_sql(
            "SELECT SUM(l_quantity) FROM lineitem WHERE l_returnflag <> 'R';"
        )
        predicates = self._filters(plan)
        assert any(
            isinstance(p, ir.Compare)
            and p.op == "<>"
            and isinstance(p.right, ir.ConstExpr)
            and p.right.value == sc.RETURNFLAG_CODES["R"]
            for p in predicates
        ), predicates

    def test_unknown_value_lists_the_dictionary(self):
        with pytest.raises(SqlError, match="known values"):
            plan_sql("SELECT SUM(l_quantity) FROM lineitem WHERE l_returnflag = 'X';")

    def test_unencoded_column_names_the_supported_ones(self):
        with pytest.raises(SqlError, match="no string dictionary"):
            plan_sql("SELECT SUM(l_quantity) FROM lineitem WHERE l_shipdate = 'x';")
