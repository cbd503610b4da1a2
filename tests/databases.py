"""How the shared test databases are built: the scale factors of the
``tiny_db`` / ``small_db`` fixtures, the partition breaks several suites
share, and the twins ``conftest.py`` derives from the fixtures.

A plain module, so scripts outside pytest (``storage/
generate_pinned_twins.py``) build exactly what the fixtures build.
"""

from __future__ import annotations

import numpy as np

from repro.tpch.schema import DATE_1998_09_02

TINY_SF = 0.002
SMALL_SF = 0.02

#: Breaks aligned with the Q1 cutoff: ``searchsorted(side="right")``
#: puts a value equal to a break into the upper partition, so the upper
#: break sits just past the cutoff and every partition decides the Q1
#: predicate wholly.
ALIGNED_BREAKS = (2100.0, 2300.0, DATE_1998_09_02 + 0.5)


def lineitem_twin(db, suffix: str, mutate):
    """A copy of ``db`` whose lineitem columns went through ``mutate``
    (dict of arrays -> dict of arrays) before encoding; for twins that
    change values.  Reordered twins take rows with ``select``."""
    from repro.storage import ColumnTable, Database
    from repro.storage.encoding import encode_columns

    twin = Database(name=f"{db.name}-{suffix}", scale_factor=db.scale_factor)
    for table_name in db.table_names:
        table = db.table(table_name)
        columns = {c: np.asarray(table[c]) for c in table.column_names}
        if table_name == "lineitem":
            columns = mutate(columns)
        twin.add_table(ColumnTable(table_name, encode_columns(columns)))
    return twin


def sorted_twin(db):
    """``db`` with lineitem stably sorted on l_shipdate, in the parent's
    code spaces (the sorted date and status columns become RLE)."""
    lineitem = db.table("lineitem")
    return db.twin(
        f"{db.name}-sorted", {"lineitem": lineitem.select(lineitem.sort_order("l_shipdate"))}
    )


def raw_twin(db):
    """``db`` with every column decoded to a plain array, under the same
    name but a distinct Database identity, so the execution cache can
    never alias the two (its keys include the database identity)."""
    return db.twin(db.name, {name: db.table(name).decoded() for name in db.table_names})
