"""The row store (DBMS R) is its page geometry: a row is the packed
tuple of every column, a page holds whole rows, and the page-granular
scan bytes of any split of the rows add up to the full scan's."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines.morsel import DEFAULT_PAGE_BYTES, row_page_geometry, row_scan_bytes
from repro.storage import ColumnTable, Database

MIXED = (np.int64, np.float64, np.int32, np.float32, np.int8)
WIDE = (np.int64, np.float64, np.int64)


def make_db(n_rows: int, dtypes=MIXED) -> Database:
    db = Database("geometry")
    db.add_table(
        ColumnTable(
            "t",
            {f"c{i}": np.arange(n_rows).astype(dtype) for i, dtype in enumerate(dtypes)},
        )
    )
    return db


class TestGeometry:
    def test_row_is_the_packed_tuple(self):
        table = make_db(100).table("t")
        packed = np.dtype(
            [(name, table.column(name).dtype) for name in table.column_names]
        )
        row_bytes, rows_per_page = row_page_geometry(table)
        assert row_bytes == packed.itemsize == 8 + 8 + 4 + 4 + 1
        assert rows_per_page == max(1, DEFAULT_PAGE_BYTES // row_bytes)

    def test_row_wider_than_a_page_gets_a_page_each(self):
        db = make_db(3, (np.float64,) * (DEFAULT_PAGE_BYTES // 8 + 1))
        assert row_page_geometry(db.table("t")) == (DEFAULT_PAGE_BYTES + 8, 1)
        assert row_scan_bytes(db, "t", 0, 3) == 3 * DEFAULT_PAGE_BYTES

    def test_empty_table_scans_nothing(self):
        assert row_scan_bytes(make_db(0), "t", 0, 0) == 0

    def test_rows_per_page_of_three_wide_columns(self):
        db = make_db(1000, WIDE)
        assert row_page_geometry(db.table("t")) == (24, DEFAULT_PAGE_BYTES // 24)

    def test_partial_last_page_is_charged_whole(self):
        db = make_db(1000, WIDE)
        _, rows_per_page = row_page_geometry(db.table("t"))
        n_rows = 2 * rows_per_page + 5
        db = make_db(n_rows, WIDE)
        assert row_scan_bytes(db, "t", 2 * rows_per_page, n_rows) == DEFAULT_PAGE_BYTES

    def test_scan_reads_more_than_a_column_subset(self):
        """A row-store scan drags whole rows: more traffic than the
        column subset a column store would read."""
        db = make_db(1000, WIDE)
        table = db.table("t")
        scan = row_scan_bytes(db, "t", 0, table.n_rows)
        assert scan >= table.nbytes
        assert scan > table.bytes_for(["c0"])

    def test_full_scan_counts_page_slack(self):
        db = make_db(1000, WIDE)
        _, rows_per_page = row_page_geometry(db.table("t"))
        n_pages = -(-1000 // rows_per_page)
        assert 1000 % rows_per_page
        assert row_scan_bytes(db, "t", 0, 1000) == n_pages * DEFAULT_PAGE_BYTES
        assert row_scan_bytes(db, "t", 0, 1000) > db.table("t").nbytes


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n_rows=st.integers(1, 5000))
def test_scan_bytes_telescope_over_any_split(data, n_rows):
    """Each page is charged to the piece holding its first row, so the
    pieces sum to whole pages of the full table -- at least its bytes."""
    db = make_db(n_rows)
    table = db.table("t")
    _, rows_per_page = row_page_geometry(table)
    inner = (
        data.draw(st.lists(st.integers(1, n_rows - 1), unique=True, max_size=12))
        if n_rows > 1
        else []
    )
    cuts = [0, *sorted(inner), n_rows]
    total = sum(row_scan_bytes(db, "t", lo, hi) for lo, hi in zip(cuts, cuts[1:]))
    assert total == -(-n_rows // rows_per_page) * DEFAULT_PAGE_BYTES
    assert total >= table.nbytes
