"""TPC-H schema subset used by the paper's experiments.

All micro-benchmarks use the TPC-H schema (Section 2): projection and
selection read ``lineitem``; the joins pair ``supplier``/``nation``
(small), ``partsupp``/``supplier`` (medium) and ``lineitem``/``orders``
(large); Q1/Q6/Q9/Q18 additionally touch ``part``, ``customer`` and
``nation``.

Every attribute is stored as an 8-byte value (int64 keys, dates and
flags; float64 money and quantities), matching the wide fixed-width
columns the profiled column engines scan.  Strings are dictionary
encoded: flags and names are small integer codes with the decode tables
kept here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Days are counted from 1992-01-01 (day 0), the start of the TPC-H
#: populated date range, through 1998-12-31.
DATE_EPOCH = "1992-01-01"
DATE_MIN = 0
DATE_MAX = 2556

#: Commonly used date constants (days since DATE_EPOCH).
DATE_1994_01_01 = 731
DATE_1995_01_01 = 1096
DATE_1995_06_17 = 1263
DATE_1998_09_02 = 2436
DATE_1998_12_01 = 2526

RETURNFLAG_CODES = {"A": 0, "N": 1, "R": 2}
LINESTATUS_CODES = {"F": 0, "O": 1}

NATION_NAMES = (
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
    "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
    "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA",
    "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
    "UNITED STATES",
)
REGION_NAMES = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")

#: p_name colour categories; Q9 filters parts whose name contains
#: "green".  TPC-H draws part-name words from a 92-word list so any one
#: colour appears in roughly 1/17 of names; we keep 17 categories and
#: let category 0 stand for "green".
N_PART_NAME_CATEGORIES = 17
GREEN_CATEGORY = 0

#: Base cardinalities at scale factor 1.
BASE_ROWS = {
    "nation": 25,
    "region": 5,
    "supplier": 10_000,
    "part": 200_000,
    "partsupp": 800_000,
    "customer": 150_000,
    "orders": 1_500_000,
    "lineitem": 6_000_000,  # approximate: 1-7 lines per order, mean 4
}

KEY_DTYPE = np.int64
DATE_DTYPE = np.int64
FLAG_DTYPE = np.int64
MONEY_DTYPE = np.float64


@dataclass(frozen=True)
class TableSchema:
    """Column names and dtypes for one table."""

    name: str
    columns: tuple[tuple[str, np.dtype], ...]

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.columns)

    def dtype_of(self, column: str) -> np.dtype:
        for name, dtype in self.columns:
            if name == column:
                return dtype
        raise KeyError(f"{self.name} has no column {column!r}")


def _schema(name: str, *columns: tuple[str, type]) -> TableSchema:
    return TableSchema(name, tuple((col, np.dtype(dt)) for col, dt in columns))


SCHEMAS: dict[str, TableSchema] = {
    schema.name: schema
    for schema in (
        _schema(
            "nation",
            ("n_nationkey", KEY_DTYPE),
            ("n_regionkey", KEY_DTYPE),
            ("n_name", FLAG_DTYPE),
        ),
        _schema("region", ("r_regionkey", KEY_DTYPE), ("r_name", FLAG_DTYPE)),
        _schema(
            "supplier",
            ("s_suppkey", KEY_DTYPE),
            ("s_nationkey", KEY_DTYPE),
            ("s_acctbal", MONEY_DTYPE),
        ),
        _schema(
            "part",
            ("p_partkey", KEY_DTYPE),
            ("p_namecat", FLAG_DTYPE),
            ("p_retailprice", MONEY_DTYPE),
        ),
        _schema(
            "partsupp",
            ("ps_partkey", KEY_DTYPE),
            ("ps_suppkey", KEY_DTYPE),
            ("ps_availqty", MONEY_DTYPE),
            ("ps_supplycost", MONEY_DTYPE),
        ),
        _schema(
            "customer",
            ("c_custkey", KEY_DTYPE),
            ("c_nationkey", KEY_DTYPE),
            ("c_acctbal", MONEY_DTYPE),
        ),
        _schema(
            "orders",
            ("o_orderkey", KEY_DTYPE),
            ("o_custkey", KEY_DTYPE),
            ("o_orderdate", DATE_DTYPE),
            ("o_totalprice", MONEY_DTYPE),
        ),
        _schema(
            "lineitem",
            ("l_orderkey", KEY_DTYPE),
            ("l_partkey", KEY_DTYPE),
            ("l_suppkey", KEY_DTYPE),
            ("l_linenumber", KEY_DTYPE),
            ("l_quantity", MONEY_DTYPE),
            ("l_extendedprice", MONEY_DTYPE),
            ("l_discount", MONEY_DTYPE),
            ("l_tax", MONEY_DTYPE),
            ("l_returnflag", FLAG_DTYPE),
            ("l_linestatus", FLAG_DTYPE),
            ("l_shipdate", DATE_DTYPE),
            ("l_commitdate", DATE_DTYPE),
            ("l_receiptdate", DATE_DTYPE),
        ),
    )
}

#: Columns the projection micro-benchmark sums, in degree order
#: (Section 2: l_extendedprice, l_discount, l_tax and l_quantity).
PROJECTION_COLUMNS = ("l_extendedprice", "l_discount", "l_tax", "l_quantity")

#: Columns the selection micro-benchmark filters on (Section 2).
SELECTION_PREDICATE_COLUMNS = ("l_shipdate", "l_commitdate", "l_receiptdate")

#: Comparison symbol of each scan-kernel op name.
OP_SYMBOLS = {"le": "<=", "lt": "<", "ge": ">=", "gt": ">", "eq": "="}


@dataclass(frozen=True)
class PredicateAtom:
    """One conjunct ``column <op> threshold`` over lineitem."""

    column: str
    op: str
    threshold: float

    def key(self) -> tuple[str, str, float]:
        return (self.column, self.op, float(self.threshold))

    @property
    def label(self) -> str:
        """``column <symbol>``, the stem of the predicate's branch stream."""
        return f"{self.column} {OP_SYMBOLS[self.op]}"


@dataclass(frozen=True)
class LineitemScan:
    """What one hand-wired lineitem scan evaluates and streams.

    ``atoms`` are its ``predicate_mask`` calls in evaluation order --
    what zone-map pruning and rollup routing reason about -- and
    ``columns`` the columns it streams, in byte-accounting order.
    """

    atoms: tuple[PredicateAtom, ...]
    columns: tuple[str, ...]

    @property
    def predicate_columns(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(atom.column for atom in self.atoms))


#: The hand-wired scans by engine method.  The engines' runners and
#: cost recorders, the Q6 predicate streams, zone-map pruning and the
#: rollup router all read these entries; nothing restates them.
LINEITEM_SCANS = {
    "run_groupby": LineitemScan((), ("l_partkey", "l_returnflag", "l_extendedprice")),
    "run_q1": LineitemScan(
        (PredicateAtom("l_shipdate", "le", DATE_1998_09_02),),
        (
            "l_shipdate", "l_returnflag", "l_linestatus", "l_quantity",
            "l_extendedprice", "l_discount", "l_tax",
        ),
    ),
    "run_q6": LineitemScan(
        (
            PredicateAtom("l_shipdate", "ge", DATE_1994_01_01),
            PredicateAtom("l_shipdate", "lt", DATE_1995_01_01),
            PredicateAtom("l_discount", "ge", 0.05),
            PredicateAtom("l_discount", "le", 0.07),
            PredicateAtom("l_quantity", "lt", 24.0),
        ),
        ("l_shipdate", "l_discount", "l_quantity", "l_extendedprice"),
    ),
    "run_q9": LineitemScan(
        (),
        (
            "l_partkey", "l_suppkey", "l_orderkey",
            "l_extendedprice", "l_discount", "l_quantity",
        ),
    ),
    "run_q18": LineitemScan((), ("l_orderkey", "l_quantity")),
}


def selection_atoms(thresholds: dict[str, float]) -> tuple[PredicateAtom, ...]:
    """The selection micro-benchmark's atoms: ``column <= threshold``
    per resolved threshold, in the thresholds' order."""
    return tuple(
        PredicateAtom(column, "le", float(threshold))
        for column, threshold in thresholds.items()
    )


def scan_columns(method: str, kwargs=()) -> tuple[str, ...]:
    """The lineitem columns one bound hand-wired call streams: the
    byte accounting of pruning decisions and rollup routing.  Empty for
    calls this module does not declare."""
    if method == "run_projection":
        return PROJECTION_COLUMNS[: int(dict(kwargs)["degree"])]
    if method == "run_selection":
        return SELECTION_PREDICATE_COLUMNS + PROJECTION_COLUMNS
    scan = LINEITEM_SCANS.get(method)
    return scan.columns if scan is not None else ()


def rows_at_scale(table: str, scale_factor: float) -> int:
    """Row count of ``table`` at the given scale factor.

    ``nation`` and ``region`` are fixed-size; every other table scales
    linearly, with a floor of one row so tiny test databases stay valid.
    """
    if scale_factor <= 0:
        raise ValueError("scale_factor must be positive")
    base = BASE_ROWS[table]
    if table in ("nation", "region"):
        return base
    return max(1, round(base * scale_factor))
