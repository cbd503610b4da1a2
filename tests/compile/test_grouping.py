"""Grouped aggregation of the compiled pipeline vs a naive reference.

:meth:`KernelProgram.execute` derives dense group ids from the key
columns (offset / mixed radix, factorised where the domain is sparse or
would leave int64) and sums every slot with one grouped ExactSum call
into a :class:`GroupedPartial`.  The emitted leaf -- key arrays in
ascending tuple order, exact units, counts -- and the finished rows
(key cells as the Python types SQL returns) are compared with a
row-at-a-time reference that shares none of that machinery, under
several partitionings of the rows.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from generate_pinned_compiled_profiles import CASES, N_ROWS, grouping_sql
from matrix.cells import TILINGS

from repro.compile.program import compiled_program
from repro.engines import TyperEngine
from repro.engines.morsel import GroupedPartial, group_ids
from repro.sql.api import plan_sql

def _naive_key_cell(value):
    value = value.item()
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def naive_groups(db, keys, lo, hi) -> dict:
    """key tuple -> (exact sum as a Fraction, count), one row at a time."""
    table = db.table("lineitem")
    key_columns = [np.asarray(table[k]) for k in keys]
    price = np.asarray(table["l_extendedprice"])
    groups: dict = {}
    for row in range(lo, hi):
        key = tuple(_naive_key_cell(column[row]) for column in key_columns)
        total, count = groups.get(key, (Fraction(0), 0))
        groups[key] = (total + Fraction(float(price[row])), count + 1)
    return groups


def assert_leaf_matches(groups: GroupedPartial, reference: dict) -> None:
    """Keys ascending and unique, columns the reference's exact units
    and integer counts, group for group."""
    keys = sorted(reference)
    assert list(zip(*(column.tolist() for column in groups.keys))) == keys
    assert groups.columns["sum:lineitem.l_extendedprice"].tolist() == [
        int(reference[key][0] * 2**1074) for key in keys
    ]
    counts = groups.columns["count:*"]
    assert counts.dtype.kind == "i"
    assert counts.tolist() == [reference[key][1] for key in keys]


def naive_rows(reference: dict) -> list:
    """The finished rows: key cells, the correctly rounded sum, count."""
    return [
        [*key, float(total), count]
        for key, (total, count) in sorted(reference.items())
    ]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("shape", ["whole", "halves", "ragged"])
def test_morsel_state_matches_naive_reference(case, shape):
    db, keys = CASES[case]
    plan = plan_sql(grouping_sql(keys))
    program = compiled_program(plan)
    slot_names = {slot.name for slot in program.slots}
    assert slot_names == {"sum:lineitem.l_extendedprice", "count:*"}
    engine = TyperEngine()
    partials = []
    for lo, hi in TILINGS[shape](N_ROWS):
        partial = engine.run_compiled(db, plan, row_range=(lo, hi))
        assert_leaf_matches(
            partial.details["partial"]["groups"], naive_groups(db, keys, lo, hi)
        )
        partials.append(partial)
    merged = engine.merge_morsels(db, "run_compiled", {"plan": plan}, partials)
    whole = naive_groups(db, keys, 0, N_ROWS)
    # repr: integer-valued key cells come out as ints, the rest as floats.
    assert repr(merged.value["rows"]) == repr(naive_rows(whole))


def test_group_ids_rank_key_tuples_in_ascending_order():
    """Dense and factorised folds agree with sorting the tuples."""
    rng = np.random.default_rng(23)
    for high in (4, 1 << 30, 1 << 45):
        key_arrays = [rng.integers(-high, high, size=300) for _ in range(3)]
        key_arrays.append(rng.integers(0, 3, size=300) / 4.0)
        key_arrays.append(rng.integers(0, 5, size=300).astype(np.uint8))
        ids, n_groups = group_ids(key_arrays)
        tuples = list(zip(*(k.tolist() for k in key_arrays)))
        ranks = {key: rank for rank, key in enumerate(sorted(set(tuples)))}
        assert n_groups == len(ranks)
        assert ids.tolist() == [ranks[key] for key in tuples]
