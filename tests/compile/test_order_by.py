"""ORDER BY / LIMIT of the compiled finisher.

Rows sort stably by the ORDER BY columns with the group key as the
tiebreak, name columns by their decoded strings, and NaN by
PostgreSQL's rule: greater than every number, so last under ASC and
first under DESC.  (A comparison sort over Python floats is not total
once a NaN is present, which used to return wrong rows.)
"""

from __future__ import annotations

import math

import pytest

from repro.engines import TyperEngine
from repro.sql import compile_sql

#: ``l_discount = 0.05`` sums ``l_discount - 0.05`` to exactly zero, so
#: its ratio is NaN; every other group's is a number.
NAN_RATIO = (
    "SELECT l_discount, SUM(l_quantity) / SUM(l_discount - 0.05) AS r "
    "FROM lineitem GROUP BY l_discount ORDER BY r {order};"
)


@pytest.fixture(scope="module")
def db(db_factory):
    return db_factory(0.01, seed=7)


def rows(db, sql):
    return compile_sql(sql).execute(TyperEngine(), db).value["rows"]


def test_nan_sorts_last_ascending(db):
    ratios = [r for _, r in rows(db, NAN_RATIO.format(order="ASC"))]
    assert math.isnan(ratios[-1])
    assert ratios[:-1] == sorted(ratios[:-1])


def test_nan_sorts_first_descending(db):
    got = rows(db, NAN_RATIO.format(order="DESC"))
    assert got[0][0] == 0.05 and math.isnan(got[0][1])
    ratios = [r for _, r in got[1:]]
    assert ratios == sorted(ratios, reverse=True)


def test_limit_keeps_the_top_of_the_nan_order(db):
    descending = rows(db, NAN_RATIO.format(order="DESC LIMIT 4"))
    assert math.isnan(descending[0][1])
    assert [round(r, 2) for _, r in descending[1:]] == [2549.61, 1273.82, 841.22]
    ascending = rows(db, NAN_RATIO.format(order="ASC LIMIT 3"))
    assert [round(r, 2) for _, r in ascending] == [-2564.02, -1271.24, -849.37]


def test_ties_keep_ascending_key_order(db):
    """Every group of a constant output ties, so the key decides."""
    got = rows(
        db,
        "SELECT l_returnflag, l_linestatus, COUNT(*) * 0 AS zero FROM lineitem "
        "GROUP BY l_returnflag, l_linestatus ORDER BY zero DESC;",
    )
    keys = [(flag, status) for flag, status, _ in got]
    by_code = sorted(keys, key=lambda key: ("ANR".index(key[0]), "FO".index(key[1])))
    assert keys == by_code


def test_name_columns_sort_by_their_strings(db):
    sql = (
        "SELECT n_name, COUNT(*) AS suppliers FROM supplier, nation "
        "WHERE s_nationkey = n_nationkey GROUP BY n_name ORDER BY n_name {order};"
    )
    names = [name for name, _ in rows(db, sql.format(order="ASC"))]
    assert names == sorted(names)
    names = [name for name, _ in rows(db, sql.format(order="DESC"))]
    assert names == sorted(names, reverse=True)


def test_multi_column_order_matches_a_python_sort(db):
    sql = (
        "SELECT l_linestatus, l_returnflag, COUNT(*) AS n FROM lineitem "
        "GROUP BY l_linestatus, l_returnflag ORDER BY l_linestatus DESC, n ASC;"
    )
    got = rows(db, sql)
    want = sorted(got, key=lambda row: row[2])
    want = sorted(want, key=lambda row: row[0], reverse=True)
    assert got == want
