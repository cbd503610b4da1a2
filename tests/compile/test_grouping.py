"""Grouped aggregation of the compiled pipeline vs a naive reference.

:meth:`KernelProgram.execute` derives dense group ids from the key
columns (offset / mixed radix, factorised where the domain is sparse or
would leave int64) and sums every slot with one grouped ExactSum call.
The emitted morsel state -- ``const_key`` tuples and their Python
types, the ``repr(key)`` dict keys and their order, exact units, counts
-- is compared with a row-at-a-time reference that shares none of that
machinery, under several partitionings of the rows.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.compile.program import _group_ids, compiled_program
from repro.engines import TyperEngine
from repro.engines.morsel import merge_states
from repro.sql.api import plan_sql
from repro.storage import ColumnTable, Database

N_ROWS = 1000


def _lineitem(**columns) -> Database:
    db = Database("grouping")
    db.add_table(ColumnTable("lineitem", columns))
    return db


def _cases() -> dict[str, tuple[Database, tuple[str, ...]]]:
    rng = np.random.default_rng(17)
    price = np.round(rng.uniform(-5e4, 1e5, size=N_ROWS), 2)
    wide = 1 << 30
    return {
        # Offsets, not raw values, index the dense table.
        "negative-int-keys": (
            _lineitem(
                l_orderkey=rng.integers(-7, 3, size=N_ROWS),
                l_linenumber=rng.integers(-2, 2, size=N_ROWS),
                l_extendedprice=price,
            ),
            ("l_orderkey", "l_linenumber"),
        ),
        # 3.0 enters const_key as int 3, 0.07 stays a float.
        "float-keys": (
            _lineitem(
                l_quantity=rng.integers(1, 6, size=N_ROWS).astype(np.float64),
                l_discount=rng.integers(0, 4, size=N_ROWS) / 100.0,
                l_extendedprice=price,
            ),
            ("l_quantity", "l_discount"),
        ),
        # Radix product ~2**93: the fold compacts early and the final
        # domain is far above the row count (sparse branch); nearly
        # every row is its own group.
        "three-wide-keys": (
            _lineitem(
                l_orderkey=rng.integers(-wide, wide, size=N_ROWS),
                l_partkey=rng.integers(0, wide, size=N_ROWS),
                l_suppkey=rng.integers(0, wide, size=N_ROWS),
                l_extendedprice=price,
            ),
            ("l_orderkey", "l_partkey", "l_suppkey"),
        ),
        # One key wider than an offset radix allows, one row per group.
        "single-row-groups": (
            _lineitem(
                l_orderkey=rng.permutation(N_ROWS).astype(np.int64) * (1 << 40)
                - (1 << 48),
                l_extendedprice=price,
            ),
            ("l_orderkey",),
        ),
    }


CASES = _cases()


def _naive_key_cell(value):
    value = value.item()
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def naive_groups(db, keys, lo, hi) -> dict:
    """key tuple -> (exact units, count), one row at a time."""
    table = db.table("lineitem")
    key_columns = [np.asarray(table[k]) for k in keys]
    price = np.asarray(table["l_extendedprice"])
    groups: dict = {}
    for row in range(lo, hi):
        key = tuple(_naive_key_cell(column[row]) for column in key_columns)
        total, count = groups.get(key, (Fraction(0), 0))
        groups[key] = (total + Fraction(float(price[row])), count + 1)
    return {
        key: (int(total * 2**1074), count) for key, (total, count) in groups.items()
    }


def assert_state_matches(groups: dict, reference: dict) -> None:
    assert list(groups) == [repr(key) for key in sorted(reference)]
    for name, group in groups.items():
        key = group["const_key"]
        assert repr(key) == name  # native ints/floats: numpy scalars repr differently
        units, count = reference[key]
        assert group["sum:lineitem.l_extendedprice"].units == units
        assert group["count:*"] == count
        assert type(group["count:*"]) is int


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("shape", ["whole", "halves", "ragged"])
def test_morsel_state_matches_naive_reference(case, shape, partitionings):
    db, keys = CASES[case]
    sql = (
        f"SELECT {', '.join(keys)}, SUM(l_extendedprice) AS s, COUNT(*) AS n "
        f"FROM lineitem GROUP BY {', '.join(keys)};"
    )
    program = compiled_program(plan_sql(sql))
    slot_names = {slot.name for slot in program.slots}
    assert slot_names == {"sum:lineitem.l_extendedprice", "count:*"}
    engine = TyperEngine()
    merged: dict = {}
    for lo, hi in partitionings(N_ROWS)[shape]:
        state, _, _ = program.execute(engine, db, (lo, hi))
        assert_state_matches(state["groups"], naive_groups(db, keys, lo, hi))
        merge_states(merged, {"groups": state["groups"]})
    whole = naive_groups(db, keys, 0, N_ROWS)
    assert merged["groups"].keys() == {repr(key) for key in whole}
    for group in merged["groups"].values():
        units, count = whole[group["const_key"]]
        assert group["sum:lineitem.l_extendedprice"].units == units
        assert group["count:*"] == count


def test_group_ids_rank_key_tuples_in_ascending_order():
    """Dense and factorised folds agree with sorting the tuples."""
    rng = np.random.default_rng(23)
    for high in (4, 1 << 30, 1 << 45):
        key_arrays = [rng.integers(-high, high, size=300) for _ in range(3)]
        key_arrays.append(rng.integers(0, 3, size=300) / 4.0)
        ids, n_groups = _group_ids(key_arrays)
        tuples = list(zip(*(k.tolist() for k in key_arrays)))
        ranks = {key: rank for rank, key in enumerate(sorted(set(tuples)))}
        assert n_groups == len(ranks)
        assert ids.tolist() == [ranks[key] for key in tuples]
