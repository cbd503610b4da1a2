"""The four profiled TPC-H queries and numpy reference implementations.

Section 6 picks one query per class: Q1 (low-cardinality group by,
4 groups), Q6 (highly selective filter, ~2%), Q9 (join-intensive) and
Q18 (high-cardinality group by, one group per order).  The reference
implementations here are plain numpy and serve as ground truth for the
engine implementations in :mod:`repro.engines`.  Their answers depend on
the database alone, so each is computed once per database and served
from the execution cache after that
(:func:`repro.core.execcache.memoized_reference`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.execcache import memoized_reference
from repro.storage import Database
from repro.tpch import schema as sc

PROFILED_QUERIES = ("Q1", "Q6", "Q9", "Q18")


@dataclass(frozen=True)
class QuerySpec:
    """Descriptive metadata for one profiled query."""

    query_id: str
    category: str
    tables: tuple[str, ...]


QUERY_SPECS = {
    "Q1": QuerySpec("Q1", "low-cardinality group by (4 groups)", ("lineitem",)),
    "Q6": QuerySpec("Q6", "highly selective filter (~2%)", ("lineitem",)),
    "Q9": QuerySpec(
        "Q9",
        "join-intensive",
        ("part", "supplier", "lineitem", "partsupp", "orders", "nation"),
    ),
    "Q18": QuerySpec(
        "Q18", "high-cardinality group by", ("customer", "orders", "lineitem")
    ),
}

#: Q18 HAVING threshold: sum(l_quantity) > 300.
Q18_QUANTITY_THRESHOLD = 300.0


@memoized_reference
def q1_reference(db: Database) -> dict[tuple[int, int], dict[str, float]]:
    """TPC-H Q1: pricing summary report.

    Groups lineitem rows shipped on or before 1998-09-02 by
    (returnflag, linestatus) and aggregates quantities and prices.
    """
    lineitem = db.table("lineitem")
    mask = lineitem["l_shipdate"] <= sc.DATE_1998_09_02
    # Flag and status are small non-negative codes; filtered-out rows
    # get key -1, so one bincount finds the occupied groups.
    group_key = np.where(
        mask, lineitem["l_returnflag"] * 2 + lineitem["l_linestatus"], -1
    )
    keys = np.flatnonzero(np.bincount(group_key + 1)[1:])
    if not len(keys):
        return {}
    # Row numbers grouped by key, table order within a group: each
    # group's slice of a gathered column holds the same values in the
    # same order as the filtered column masked by that key, so every
    # sum below is bit-identical to a per-group masked sum.
    members = [np.flatnonzero(group_key == key) for key in keys]
    order = np.concatenate(members)
    quantity = lineitem["l_quantity"][order]
    price = lineitem["l_extendedprice"][order]
    disc_price = price * (1.0 - lineitem["l_discount"][order])
    charge = disc_price * (1.0 + lineitem["l_tax"][order])

    groups = {}
    stop = 0
    for key, member in zip(keys, members):
        rows = slice(stop, stop + len(member))
        stop = rows.stop
        groups[(int(key) // 2, int(key) % 2)] = {
            "sum_qty": float(quantity[rows].sum()),
            "sum_base_price": float(price[rows].sum()),
            "sum_disc_price": float(disc_price[rows].sum()),
            "sum_charge": float(charge[rows].sum()),
            "count": len(member),
        }
    return groups


@memoized_reference
def q6_reference(db: Database) -> float:
    """TPC-H Q6: forecasting revenue change.

    sum(l_extendedprice * l_discount) over 1994 shipments with discount
    in [0.05, 0.07] and quantity < 24.
    """
    lineitem = db.table("lineitem")
    shipdate = lineitem["l_shipdate"]
    discount = lineitem["l_discount"]
    quantity = lineitem["l_quantity"]
    mask = (
        (shipdate >= sc.DATE_1994_01_01)
        & (shipdate < sc.DATE_1995_01_01)
        & (discount >= 0.05)
        & (discount <= 0.07)
        & (quantity < 24.0)
    )
    return float((lineitem["l_extendedprice"][mask] * discount[mask]).sum())


#: Display names of Q6's declared atoms, in their order.
_Q6_PREDICATE_NAMES = (
    "l_shipdate >= 1994-01-01",
    "l_shipdate < 1995-01-01",
    "l_discount >= 0.05",
    "l_discount <= 0.07",
    "l_quantity < 24",
)


def q6_predicates(
    db: Database, lo: int = 0, hi: int | None = None
) -> list[tuple[str, np.ndarray]]:
    """Q6's five individual predicates with their boolean outcome
    streams over rows ``[lo, hi)`` of lineitem (the per-predicate
    selectivities a vectorized engine's branch predictor observes --
    Section 6)."""
    from repro.engines.scan import predicate_mask

    lineitem = db.table("lineitem")
    if hi is None:
        hi = lineitem.n_rows
    atoms = sc.LINEITEM_SCANS["run_q6"].atoms
    return [
        (name, predicate_mask(lineitem, atom.column, atom.op, atom.threshold, lo, hi))
        for name, atom in zip(_Q6_PREDICATE_NAMES, atoms)
    ]


@memoized_reference
def q9_reference(db: Database) -> dict[tuple[int, int], float]:
    """TPC-H Q9: product type profit measure.

    Profit per (nation, order year) over lineitems of "green" parts:
    sum(l_extendedprice*(1-l_discount) - ps_supplycost*l_quantity).
    """
    lineitem = db.table("lineitem")
    part = db.table("part")
    supplier = db.table("supplier")
    partsupp = db.table("partsupp")
    orders = db.table("orders")

    green_parts = part["p_partkey"][part["p_namecat"] == sc.GREEN_CATEGORY]
    green = np.isin(lineitem["l_partkey"], green_parts)

    l_partkey = lineitem["l_partkey"][green]
    l_suppkey = lineitem["l_suppkey"][green]
    l_orderkey = lineitem["l_orderkey"][green]
    price = lineitem["l_extendedprice"][green]
    discount = lineitem["l_discount"][green]
    quantity = lineitem["l_quantity"][green]

    # partsupp lookup on the composite (partkey, suppkey) key.
    n_supp = int(supplier["s_suppkey"].max()) + 1
    ps_composite = partsupp["ps_partkey"] * n_supp + partsupp["ps_suppkey"]
    ps_order = np.argsort(ps_composite)
    ps_sorted = ps_composite[ps_order]
    li_composite = l_partkey * n_supp + l_suppkey
    pos = np.searchsorted(ps_sorted, li_composite)
    pos = np.clip(pos, 0, len(ps_sorted) - 1)
    matched = ps_sorted[pos] == li_composite
    supplycost = np.zeros(len(li_composite))
    supplycost[matched] = partsupp["ps_supplycost"][ps_order[pos[matched]]]

    # supplier -> nation (suppkey is dense 1..N).
    nationkey = supplier["s_nationkey"][l_suppkey - 1]
    # orders -> year (orderkey is dense 1..N).
    orderdate = orders["o_orderdate"][l_orderkey - 1]
    year = 1992 + orderdate // 365

    amount = price * (1.0 - discount) - supplycost * quantity
    keep = matched  # inner join semantics on partsupp
    group_key = nationkey[keep] * 10_000 + year[keep]
    result = {}
    for key in np.unique(group_key):
        member = group_key == key
        result[(int(key) // 10_000, int(key) % 10_000)] = float(
            amount[keep][member].sum()
        )
    return result


@memoized_reference
def q18_reference(db: Database) -> dict[int, float]:
    """TPC-H Q18: large volume customers.

    Group lineitem by orderkey (one group per order -- the paper's
    high-cardinality group by), keep orders with sum(quantity) > 300
    and report (custkey, orderkey, totalprice, sum(quantity)) keyed by
    orderkey here.
    """
    lineitem = db.table("lineitem")
    orderkeys, inverse = np.unique(lineitem["l_orderkey"], return_inverse=True)
    sums = np.bincount(inverse, weights=lineitem["l_quantity"])
    big = sums > Q18_QUANTITY_THRESHOLD
    return {
        int(orderkey): float(total)
        for orderkey, total in zip(orderkeys[big], sums[big])
    }


def q18_group_count(db: Database) -> int:
    """Number of groups Q18's first aggregation produces (1.5M at the
    paper's SF 5; always the number of distinct orders with lines)."""
    return int(len(np.unique(db.table("lineitem")["l_orderkey"])))


REFERENCE_IMPLEMENTATIONS = {
    "Q1": q1_reference,
    "Q6": q6_reference,
    "Q9": q9_reference,
    "Q18": q18_reference,
}
