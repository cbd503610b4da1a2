"""Parser: AST shapes for the documented dialect + positioned errors."""

import pytest

from repro.sql import SqlError, parse
from repro.sql import ast
from repro.tpch.schema import DATE_1994_01_01, DATE_1998_12_01
from repro.tpch.sql import GROUPBY_SQL, JOIN_SQL, TPCH_SQL, projection_sql


class TestBasicShapes:
    def test_projection(self):
        select = parse(projection_sql(2))
        assert len(select.items) == 1
        func = select.items[0].expr
        assert isinstance(func, ast.Func) and func.name == "sum"
        assert select.tables == (ast.TableRef(name="lineitem"),)

    def test_where_and_chain_flattens(self):
        select = parse(
            "SELECT a FROM t WHERE a < 1 AND b < 2 AND c < 3"
        )
        assert isinstance(select.where, ast.Logical)
        assert select.where.op == "AND"
        assert len(select.where.terms) == 3

    def test_group_by_order_by_limit(self):
        select = parse(
            "SELECT a, SUM(b) FROM t GROUP BY a ORDER BY a DESC LIMIT 10"
        )
        assert select.group_by == (ast.Column(name="a"),)
        assert select.order_by[0].descending is True
        assert select.limit == 10

    def test_date_literal_folds_to_epoch_days(self):
        select = parse("SELECT a FROM t WHERE d >= DATE '1994-01-01'")
        assert select.where.right == ast.Param(slot=0)
        assert select.binding == (float(DATE_1994_01_01),)

    def test_date_minus_interval(self):
        select = parse(
            "SELECT a FROM t WHERE d <= DATE '1998-12-01' - INTERVAL '90' DAY"
        )
        binary = select.where.right
        assert binary == ast.Binary(
            op="-", left=ast.Param(slot=0), right=ast.Param(slot=1)
        )
        assert select.binding == (float(DATE_1998_12_01), 90.0)

    def test_between(self):
        select = parse("SELECT a FROM t WHERE b BETWEEN 0.05 AND 0.07")
        assert isinstance(select.where, ast.Between)

    def test_count_star(self):
        select = parse("SELECT COUNT(*) FROM t")
        assert select.items[0].expr == ast.Func(name="count", args=(), star=True)

    def test_star_only_valid_for_count(self):
        with pytest.raises(SqlError, match=r"SUM\(\*\)"):
            parse("SELECT SUM(*) FROM t")

    def test_in_subquery_and_having(self):
        select = parse(TPCH_SQL["Q18"])
        in_pred = select.where.terms[0]
        assert isinstance(in_pred, ast.InSelect)
        assert in_pred.select.having is not None

    def test_derived_table_and_extract(self):
        select = parse(TPCH_SQL["Q9"])
        derived = select.tables[0]
        assert isinstance(derived, ast.DerivedTable)
        assert derived.alias == "profit"
        o_year = derived.select.items[1].expr
        assert isinstance(o_year, ast.ExtractYear)

    def test_like(self):
        select = parse("SELECT a FROM part WHERE p_name LIKE '%green%'")
        assert select.where == ast.Like(
            arg=ast.Column(name="p_name"), pattern="%green%"
        )

    def test_documented_sql_all_parses(self):
        for sql in (*TPCH_SQL.values(), *JOIN_SQL.values(), GROUPBY_SQL):
            assert isinstance(parse(sql), ast.Select)


class TestErrors:
    def test_empty_statement(self):
        with pytest.raises(SqlError, match="empty statement"):
            parse("   ")

    def test_missing_from_points_at_position(self):
        with pytest.raises(SqlError, match="expected FROM") as info:
            parse("SELECT a, b WHERE x = 1")
        error = info.value
        assert error.line == 1
        assert error.column == len("SELECT a, b ") + 1
        assert "^" in str(error)

    def test_trailing_garbage(self):
        with pytest.raises(SqlError, match="expected end of statement"):
            parse("SELECT a FROM t GARBAGE AND MORE")

    def test_malformed_date(self):
        with pytest.raises(SqlError, match="malformed date"):
            parse("SELECT a FROM t WHERE d < DATE 'not-a-date'")

    def test_interval_unit_must_be_day(self):
        with pytest.raises(SqlError, match="DAY"):
            parse("SELECT a FROM t WHERE d < DATE '1994-01-01' - INTERVAL '3' MONTH")

    def test_non_integer_limit(self):
        with pytest.raises(SqlError, match="integer LIMIT"):
            parse("SELECT a FROM t LIMIT 2.5")

    def test_like_needs_string_pattern(self):
        with pytest.raises(SqlError, match="pattern"):
            parse("SELECT a FROM t WHERE a LIKE 5")

    def test_unclosed_parenthesis(self):
        with pytest.raises(SqlError, match=r"expected '\)'"):
            parse("SELECT SUM(a FROM t")

    def test_multiline_error_shows_offending_line(self):
        sql = "SELECT a\nFROM t\nWHERE >"
        with pytest.raises(SqlError, match="line 3") as info:
            parse(sql)
        assert "WHERE >" in str(info.value)
