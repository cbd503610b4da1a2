"""``partition_binding`` pinned: the driving table and the tables read,
for each documented workload, an extended TPC-H query and a
dimension-only compiled statement.

The table is literal (written from the implementation that listed the
TPC-H runners' and joins' tables by hand), so deriving the same facts
from the plan and the engines' driving-table rule must reproduce it.
"""

import pytest

from repro.sql import compile_sql
from repro.sql.lower import partition_binding
from repro.tpch.sql import (
    EXTENDED_TPCH_SQL,
    GROUPBY_SQL,
    JOIN_SQL,
    TPCH_SQL,
    projection_sql,
)

SELECTION = (
    "SELECT SUM(l_extendedprice + l_discount + l_tax + l_quantity) "
    "FROM lineitem WHERE l_shipdate <= 9000 AND l_commitdate <= 9000 "
    "AND l_receiptdate <= 9000"
)
DIMENSION_ONLY = (
    "SELECT n_name, SUM(s_acctbal) FROM supplier, nation "
    "WHERE s_nationkey = n_nationkey GROUP BY n_name"
)

#: name -> (statement, bound method, driving table, tables read)
PINNED = {
    "tpch-Q1": (TPCH_SQL["Q1"], "run_tpch", "lineitem", {"lineitem"}),
    "tpch-Q6": (TPCH_SQL["Q6"], "run_tpch", "lineitem", {"lineitem"}),
    "tpch-Q9": (
        TPCH_SQL["Q9"], "run_tpch", "lineitem",
        {"lineitem", "nation", "orders", "part", "partsupp", "supplier"},
    ),
    "tpch-Q18": (
        TPCH_SQL["Q18"], "run_tpch", "lineitem", {"customer", "lineitem", "orders"},
    ),
    "join-small": (JOIN_SQL["small"], "run_join", "supplier", {"nation", "supplier"}),
    "join-medium": (
        JOIN_SQL["medium"], "run_join", "partsupp", {"partsupp", "supplier"},
    ),
    "join-large": (JOIN_SQL["large"], "run_join", "lineitem", {"lineitem", "orders"}),
    "projection-2": (projection_sql(2), "run_projection", "lineitem", {"lineitem"}),
    "groupby": (GROUPBY_SQL, "run_groupby", "lineitem", {"lineitem"}),
    "selection": (SELECTION, "run_selection", "lineitem", {"lineitem"}),
    "extended-Q12": (
        EXTENDED_TPCH_SQL["Q12"], "run_compiled", "lineitem", {"lineitem", "orders"},
    ),
    "dimension-only": (
        DIMENSION_ONLY, "run_compiled", "supplier", {"nation", "supplier"},
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_partition_binding_is_pinned(name):
    sql, method, table, referenced = PINNED[name]
    bound = compile_sql(sql)
    assert bound.method == method
    binding = partition_binding(bound)
    assert binding.table == table
    assert binding.referenced == frozenset(referenced)
