"""The pinned plan corpus: what the SQL front end makes of each statement.

``pinned_plans.json`` holds two sections, each keyed by a case name:

* ``plans`` -- per statement its text, a SHA-256 of ``repr(plan_sql(text))``
  and ``repr`` of ``(workload, method, args, kwargs without the plan)``
  of ``compile_sql(text)``; a statement the front end rejects records
  the :class:`~repro.sql.SqlError` text in place of either.
* ``errors`` -- bad statements with the exact ``SqlError`` text, each
  with an optional ``warm`` statement: a text to run through a
  :class:`~repro.sql.PlanCache` first, so the bad one is also checked
  against a cache that already holds a plan of its shape.

The corpus: the documented TPC-H, extended TPC-H, group-by, join and
projection texts, selection at 1/10/50 % on the ``tiny_db`` database,
every text statement of ``tests/matrix/cells.py``, and about 200 seeded
ad hoc statements (the four olapbench ``frontend_adhoc`` generators,
copied here, plus templates for literal folding, negation, ``!=``,
mirrored comparisons, HAVING, LIMIT and subqueries).

``test_pinned_plans.py`` compares the front end against it.  It was
written from ``a9c1185``, the last commit that planned each statement
with its literals in place; ``python tests/pinned.py plans`` writes it.
"""

from __future__ import annotations

import random

from pinned import sha256

AD_HOC_SEED, AD_HOC_PER_TEMPLATE = 35, 25


# ----------------------------------------------------------------------
# Ad hoc statements
# ----------------------------------------------------------------------
def _date(rng) -> str:
    return f"{rng.randint(1992, 1998)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"


def _q6(rng) -> str:
    year = rng.randint(1993, 1997)
    discount = rng.randint(2, 9) / 100
    return (
        "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
        f"WHERE l_shipdate >= DATE '{year}-01-01' "
        f"AND l_shipdate < DATE '{year + 1}-01-01' "
        f"AND l_discount BETWEEN {discount - 0.01:.2f} AND {discount + 0.01:.2f} "
        f"AND l_quantity < {rng.randint(10, 40) + rng.random():.6f};"
    )


def _selection(rng) -> str:
    return (
        "SELECT SUM(l_extendedprice + l_discount + l_tax + l_quantity) "
        f"FROM lineitem WHERE l_shipdate <= {rng.uniform(0, 2500):.6f} "
        f"AND l_discount <= {rng.uniform(0, 0.1):.6f} "
        f"AND l_quantity <= {rng.uniform(1, 50):.6f};"
    )


def _q12(rng) -> str:
    year = rng.randint(1993, 1997)
    return (
        "SELECT l_returnflag, COUNT(*) AS line_count, "
        "SUM(l_extendedprice) AS revenue FROM orders, lineitem "
        "WHERE o_orderkey = l_orderkey AND l_commitdate < l_receiptdate "
        "AND l_shipdate < l_commitdate "
        f"AND l_receiptdate >= DATE '{year}-01-01' "
        f"AND l_receiptdate < DATE '{year + 1}-01-01' "
        f"AND l_quantity < {rng.randint(20, 49) + rng.random():.6f} "
        "GROUP BY l_returnflag ORDER BY l_returnflag;"
    )


def _q3(rng) -> str:
    date = f"1995-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
    return (
        "SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, "
        "o_orderdate FROM customer, orders, lineitem "
        "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
        f"AND c_nationkey < {rng.randint(2, 20)} "
        f"AND o_orderdate < DATE '{date}' AND l_shipdate > DATE '{date}' "
        f"AND l_discount < {rng.uniform(0.03, 0.1):.6f} "
        "GROUP BY l_orderkey, o_orderdate ORDER BY revenue DESC LIMIT 10;"
    )


def _q1_window(rng) -> str:
    """Q1 with a drawn ``DATE - INTERVAL`` cutoff (two literals, one
    folded constant); 90 days reproduces the template."""
    days = rng.choice((90, 60, 120, rng.randint(1, 200)))
    return (
        "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
        "SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, "
        "AVG(l_discount), COUNT(*) AS count_order FROM lineitem "
        f"WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL '{days}' DAY "
        "GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus;"
    )


def _negated(rng) -> str:
    """Negated literals and columns, ``!=`` / ``<>``, a mirrored
    comparison and constant arithmetic that folds."""
    op = rng.choice(("!=", "<>"))
    return (
        f"SELECT SUM(l_extendedprice * -{rng.randint(1, 9)}) AS neg, "
        f"SUM(-l_quantity + {rng.randint(1, 5)} * {rng.randint(1, 5)}) AS shifted, "
        f"SUM(l_tax / {rng.choice((0, 2, 4))}) AS ratio FROM lineitem "
        f"WHERE {rng.randint(5, 40)} > l_quantity "
        f"AND l_discount {op} -{rng.randint(0, 3)}.0 "
        f"AND l_shipdate >= DATE '{_date(rng)}' + INTERVAL '{rng.randint(-30, 30)}' DAY "
        f"AND l_tax <= - - {rng.random():.4f};"
    )


def _dictionary(rng) -> str:
    """String equality on dictionary columns (kept in the shape) beside
    lifted numbers."""
    region = rng.choice(("ASIA", "EUROPE", "AMERICA", "AFRICA", "MIDDLE EAST"))
    flag = rng.choice(("A", "N", "R"))
    return (
        "SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue "
        "FROM customer, orders, lineitem, supplier, nation, region "
        "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
        "AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey "
        "AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey "
        f"AND r_name = '{region}' AND l_returnflag {rng.choice(('=', '<>'))} '{flag}' "
        f"AND o_orderdate >= DATE '{_date(rng)}' "
        f"AND o_orderdate < DATE '{_date(rng)}' + INTERVAL '{rng.randint(30, 400)}' DAY "
        "GROUP BY n_name ORDER BY revenue DESC;"
    )


def _grouped(rng) -> str:
    """HAVING and LIMIT literals, EXTRACT over a date and a derived table."""
    return rng.choice((
        "SELECT l_orderkey, SUM(l_quantity) AS qty FROM lineitem "
        f"WHERE l_discount < {rng.random() / 10:.5f} GROUP BY l_orderkey "
        f"HAVING SUM(l_quantity) > {rng.randint(50, 300)} "
        f"ORDER BY qty DESC LIMIT {rng.randint(1, 20)};",
        "SELECT o_year, SUM(amount) AS total FROM "
        "(SELECT EXTRACT(YEAR FROM o_orderdate) AS o_year, "
        f"l_extendedprice * ({rng.randint(1, 3)} - l_discount) AS amount "
        "FROM orders, lineitem WHERE o_orderkey = l_orderkey "
        f"AND l_quantity BETWEEN {rng.randint(1, 10)} AND {rng.randint(11, 50)}) AS t "
        "GROUP BY o_year ORDER BY o_year;",
        "SELECT c_name, o_orderkey, SUM(l_quantity) FROM customer, orders, lineitem "
        "WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem GROUP BY l_orderkey "
        f"HAVING SUM(l_quantity) > {rng.randint(100, 300)}) "
        "AND c_custkey = o_custkey AND o_orderkey = l_orderkey "
        "GROUP BY c_name, o_orderkey ORDER BY o_orderkey;",
        "SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue, "
        f"SUM(EXTRACT(YEAR FROM l_shipdate) - {rng.randint(1992, 1999)}) AS years "
        "FROM lineitem, part WHERE l_partkey = p_partkey AND p_name LIKE '%green%' "
        f"AND p_retailprice BETWEEN {rng.randint(900, 1200)} AND {rng.randint(1300, 2000)} "
        f"AND l_shipdate < DATE '{_date(rng)}';",
    ))


AD_HOC_TEMPLATES = {
    "q6": _q6, "selection": _selection, "q12": _q12, "q3": _q3,
    "q1-window": _q1_window, "negated": _negated,
    "dictionary": _dictionary, "grouped": _grouped,
}


def ad_hoc_statements() -> dict:
    rng = random.Random(AD_HOC_SEED)
    return {
        f"adhoc/{name}-{index}": make(rng)
        for index in range(AD_HOC_PER_TEMPLATE)
        for name, make in AD_HOC_TEMPLATES.items()
    }


# ----------------------------------------------------------------------
# Bad statements
# ----------------------------------------------------------------------
_Q6_DATES = (
    "SELECT SUM(l_extendedprice * l_discount) FROM lineitem "
    "WHERE l_shipdate >= DATE '{a}' AND l_shipdate < DATE '{b}' AND l_quantity < {q};"
)


def error_statements() -> dict:
    """``name -> (bad text, warm text or None)``."""
    q6 = _Q6_DATES.format
    return {
        "date/feb-30": (q6(a="1995-02-30", b="1996-01-01", q=24), q6(a="1995-02-28", b="1996-01-01", q=24)),
        "date/second-malformed": (q6(a="1995-01-01", b="1996-13-01", q=30), q6(a="1995-01-01", b="1996-12-01", q=30)),
        "date/both-malformed": (q6(a="1995-00-01", b="x", q=24), q6(a="1995-01-01", b="1996-01-01", q=24)),
        "date/not-a-string": (
            "SELECT SUM(l_quantity) FROM lineitem WHERE l_shipdate < DATE 5;",
            "SELECT SUM(l_quantity) FROM lineitem WHERE l_shipdate < DATE '1995-01-01';",
        ),
        "interval/x": (
            "SELECT SUM(l_quantity) FROM lineitem WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL 'x' DAY;",
            "SELECT SUM(l_quantity) FROM lineitem WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL '3' DAY;",
        ),
        "interval/fraction": (
            "SELECT SUM(l_quantity) FROM lineitem WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL '2.5' DAY;",
            "SELECT SUM(l_quantity) FROM lineitem WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL '2' DAY;",
        ),
        "interval/month-before-count": (
            "SELECT SUM(l_quantity) FROM lineitem WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL 'x' MONTH;",
            None,
        ),
        "interval/not-a-string": (
            "SELECT SUM(l_quantity) FROM lineitem WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL 5 DAY;",
            "SELECT SUM(l_quantity) FROM lineitem WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL '5' DAY;",
        ),
        "syntax-before-date": (
            "SELECT SUM(l_quantity) FROM lineitem WHERE l_quantity < < 5 AND l_shipdate < DATE '1995-02-30';",
            None,
        ),
        "syntax-after-date": (
            "SELECT SUM(l_quantity) FROM lineitem WHERE l_shipdate < DATE '1995-02-30' AND l_quantity < < 5;",
            None,
        ),
        "date-before-unknown-column": (
            "SELECT SUM(l_quantity) FROM lineitem WHERE l_shipdate < DATE '1995-02-30' AND l_bogus < 5;",
            None,
        ),
        "date-in-subquery": (
            "SELECT o_year, SUM(amount) FROM (SELECT EXTRACT(YEAR FROM o_orderdate) AS o_year, "
            "l_quantity AS amount FROM orders, lineitem WHERE o_orderkey = l_orderkey "
            "AND o_orderdate < DATE '1995-04-31') AS t GROUP BY o_year;",
            "SELECT o_year, SUM(amount) FROM (SELECT EXTRACT(YEAR FROM o_orderdate) AS o_year, "
            "l_quantity AS amount FROM orders, lineitem WHERE o_orderkey = l_orderkey "
            "AND o_orderdate < DATE '1995-04-30') AS t GROUP BY o_year;",
        ),
        "unknown-r_name": (
            "SELECT n_name, SUM(l_quantity) FROM lineitem, supplier, nation, region "
            "WHERE l_suppkey = s_suppkey AND s_nationkey = n_nationkey "
            "AND n_regionkey = r_regionkey AND r_name = 'ATLANTIS' AND l_quantity < 5 GROUP BY n_name;",
            "SELECT n_name, SUM(l_quantity) FROM lineitem, supplier, nation, region "
            "WHERE l_suppkey = s_suppkey AND s_nationkey = n_nationkey "
            "AND n_regionkey = r_regionkey AND r_name = 'ASIA' AND l_quantity < 5 GROUP BY n_name;",
        ),
        "limit/no-count": ("SELECT l_orderkey, SUM(l_quantity) AS q FROM lineitem GROUP BY l_orderkey ORDER BY q LIMIT;", None),
        "limit/fraction": ("SELECT l_orderkey, SUM(l_quantity) AS q FROM lineitem GROUP BY l_orderkey ORDER BY q LIMIT 2.5;", None),
        "limit/negative": ("SELECT l_orderkey, SUM(l_quantity) AS q FROM lineitem GROUP BY l_orderkey ORDER BY q LIMIT -3;", None),
        "string-in-value": ("SELECT SUM(l_quantity) FROM lineitem WHERE l_quantity < 'five';", None),
        "constant-comparison": (
            "SELECT SUM(l_quantity) FROM lineitem WHERE 5 < 6;",
            None,
        ),
        "malformed-number": ("SELECT SUM(l_quantity) FROM lineitem WHERE l_quantity < 1.2.3;", None),
        "unterminated-string": ("SELECT SUM(l_quantity) FROM lineitem WHERE l_shipdate < DATE '1995-01-01;", None),
        "empty": ("   ", None),
        "not-lowerable": (
            "SELECT MIN(l_quantity) FROM lineitem WHERE l_quantity < 7;",
            "SELECT MIN(l_quantity) FROM lineitem WHERE l_quantity < 9;",
        ),
        "unknown-column-after-literal": (
            "SELECT SUM(l_quantity) FROM lineitem WHERE l_quantity < 5 AND l_nope > 2;",
            None,
        ),
    }


# ----------------------------------------------------------------------
# The corpus and what the front end makes of it
# ----------------------------------------------------------------------
def corpus() -> dict:
    """``name -> text`` of every pinned statement."""
    from repro.tpch import generate_database
    from repro.tpch.sql import (
        EXTENDED_TPCH_SQL,
        GROUPBY_SQL,
        JOIN_SQL,
        TPCH_SQL,
        projection_sql,
        selection_sql,
    )

    from databases import TINY_SF
    from matrix.cells import STATEMENTS

    tiny = generate_database(scale_factor=TINY_SF, seed=7)
    statements = {f"tpch/{qid}": sql for qid, sql in TPCH_SQL.items()}
    statements.update({f"extended/{qid}": sql for qid, sql in EXTENDED_TPCH_SQL.items()})
    statements["groupby"] = GROUPBY_SQL
    statements.update({f"join/{size}": sql for size, sql in JOIN_SQL.items()})
    statements.update({f"projection/{d}": projection_sql(d) for d in range(1, 5)})
    statements.update({
        f"selection/{int(s * 100)}%": selection_sql(s, tiny) for s in (0.01, 0.10, 0.50)
    })
    statements.update({
        f"matrix/{name}": cell.sql for name, cell in STATEMENTS.items()
        if isinstance(cell.sql, str)
    })
    statements.update(ad_hoc_statements())
    statements.update({
        f"warm/{name}": warm
        for name, (_, warm) in error_statements().items() if warm is not None
    })
    return statements


def plan_digest(plan) -> str:
    return sha256(repr(plan))


def bound_fields(bound) -> str:
    kwargs = tuple((k, v) for k, v in bound.kwargs if k != "plan")
    return repr((bound.workload, bound.method, bound.args, kwargs))


def front_end(sql: str) -> dict:
    """What ``plan_sql`` and ``compile_sql`` make of ``sql``."""
    from repro.sql import SqlError
    from repro.sql.api import compile_sql, plan_sql

    entry: dict = {"sql": sql}
    try:
        entry["plan_sha256"] = plan_digest(plan_sql(sql))
    except SqlError as exc:
        entry["plan_error"] = str(exc)
    try:
        entry["bound"] = bound_fields(compile_sql(sql))
    except SqlError as exc:
        entry["bound_error"] = str(exc)
    return entry


def error_text(sql: str) -> str:
    from repro.sql import SqlError
    from repro.sql.api import compile_sql

    try:
        compile_sql(sql)
    except SqlError as exc:
        return str(exc)
    raise AssertionError(f"expected a SqlError from {sql!r}")


def collect() -> dict:
    return {
        "plans": {name: front_end(sql) for name, sql in corpus().items()},
        "errors": {
            name: {"sql": sql, "warm": warm, "error": error_text(sql)}
            for name, (sql, warm) in error_statements().items()
        },
    }
