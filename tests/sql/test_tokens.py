"""Tokenizer: lexemes, positions, normalization, clear errors."""

import pytest

from repro.sql import SqlError, normalize_sql, tokenize
from repro.sql.tokens import KIND_EOF, KIND_IDENT, KIND_KEYWORD, KIND_NUMBER, KIND_STRING
from repro.tpch.schema import DATE_1998_12_01


class TestTokenize:
    def test_kinds_and_case_folding(self):
        tokens = tokenize("Select L_QUANTITY from lineitem where x <= 3.5")
        kinds = [t.kind for t in tokens]
        assert kinds[0] == KIND_KEYWORD and tokens[0].text == "SELECT"
        assert tokens[1].kind == KIND_IDENT and tokens[1].text == "l_quantity"
        assert kinds[-1] == KIND_EOF

    def test_number_value(self):
        (token,) = [t for t in tokenize("SELECT 3.5 FROM t") if t.kind == KIND_NUMBER]
        assert token.value == 3.5

    def test_string_value_strips_quotes(self):
        (token,) = [t for t in tokenize("DATE '1994-01-01'") if t.kind == KIND_STRING]
        assert token.value == "1994-01-01"

    def test_multichar_operators_lex_whole(self):
        ops = [t.text for t in tokenize("a <= b >= c <> d != e") if t.kind == "op"]
        assert ops == ["<=", ">=", "<>", "!="]

    def test_comments_are_skipped(self):
        tokens = tokenize("SELECT 1 -- trailing comment\nFROM t")
        assert [t.text for t in tokens if t.kind == KIND_KEYWORD] == ["SELECT", "FROM"]

    def test_positions_point_at_source(self):
        sql = "SELECT  l_quantity"
        token = tokenize(sql)[1]
        assert sql[token.pos:token.pos + len("l_quantity")] == "l_quantity"

    def test_unterminated_string(self):
        with pytest.raises(SqlError, match="unterminated string"):
            tokenize("SELECT 'oops FROM t")

    def test_unexpected_character_reports_line_and_column(self):
        with pytest.raises(SqlError, match="line 2, column 3") as info:
            tokenize("SELECT 1\nFR@M t")
        assert "@" in str(info.value)


class TestNormalizeSql:
    def test_whitespace_and_case_insensitive(self):
        a = normalize_sql("select   sum(l_quantity)\nFROM lineitem;")
        b = normalize_sql("SELECT SUM(L_QUANTITY) FROM LINEITEM")
        assert a == b

    def test_numbers_canonicalised(self):
        assert normalize_sql("SELECT 1 FROM t") == normalize_sql("SELECT 1.0 FROM t")

    def test_different_statements_stay_different(self):
        assert normalize_sql("SELECT a FROM t") != normalize_sql("SELECT b FROM t")

    def test_not_equal_spellings_are_one_statement(self):
        a = normalize_sql("SELECT a FROM t WHERE a != 1")
        b = normalize_sql("SELECT a FROM t WHERE a <> 1")
        assert a == b
        assert "<>" in a.shape and "!=" not in a.shape


class TestShapeAndBinding:
    def test_literals_lift_into_numbered_slots(self):
        statement = normalize_sql(
            "SELECT SUM(l_tax * 2) FROM lineitem WHERE l_shipdate "
            "<= DATE '1998-12-01' - INTERVAL '90' DAY AND l_quantity < 24;"
        )
        assert statement.shape == (
            "SELECT SUM ( l_tax * ?0 ) FROM lineitem WHERE l_shipdate "
            "<= DATE '?1' - INTERVAL '?2' DAY AND l_quantity < ?3"
        )
        assert statement.binding == (2.0, float(DATE_1998_12_01), 90.0, 24.0)
        assert statement.error is None

    def test_fresh_literals_share_the_shape(self):
        a = normalize_sql("SELECT a FROM t WHERE d < DATE '1995-01-01' AND q < 3")
        b = normalize_sql("SELECT a FROM t WHERE d < DATE '1996-06-01' AND q < 4.5")
        assert a.shape == b.shape and a.binding != b.binding

    def test_strings_like_and_limit_stay_in_the_shape(self):
        statement = normalize_sql(
            "SELECT a FROM t WHERE r_name = 'ASIA' AND p_name LIKE '%green%' LIMIT 10"
        )
        assert statement.binding == ()
        assert "'ASIA'" in statement.shape and "'%green%'" in statement.shape
        assert statement.shape.endswith("LIMIT 10.0")

    def test_a_date_keyword_before_a_number_is_another_shape(self):
        assert normalize_sql("SELECT a FROM t WHERE d < DATE 5").shape != (
            normalize_sql("SELECT a FROM t WHERE d < DATE '1995-01-01'").shape
        )

    def test_malformed_literal_binds_to_none_and_keeps_the_first_error(self):
        statement = normalize_sql(
            "SELECT a FROM t WHERE d < DATE '1995-02-30' AND e < INTERVAL 'x' DAY"
        )
        assert statement.binding == (None, None)
        assert "malformed date '1995-02-30'" in str(statement.error)
