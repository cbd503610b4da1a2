"""Database catalog: named tables in both layouts.

Engines receive a :class:`Database` and pick the layout they execute
on; row tables are materialised lazily so column-only experiments do not
pay for the row copies.
"""

from __future__ import annotations

import itertools

from repro.storage.column import ColumnTable
from repro.storage.row import RowTable

_uid_counter = itertools.count()


class Database:
    """A collection of named :class:`ColumnTable` instances with lazily
    materialised row-layout twins.

    ``cache_key`` names the content when the database came out of the
    dbgen cache (:mod:`repro.tpch.dbcache`); hand-built or subsequently
    mutated databases fall back to the per-object ``uid``, so
    content-addressed consumers (the execution cache) never conflate
    distinct data.
    """

    def __init__(self, name: str = "db", scale_factor: float | None = None):
        self.name = name
        self.scale_factor = scale_factor
        self.cache_key: str | None = None
        self.uid = f"anondb-{next(_uid_counter)}"
        self._tables: dict[str, ColumnTable] = {}
        self._row_tables: dict[str, RowTable] = {}
        self._rollups: dict = {}

    @property
    def identity(self) -> str:
        """Stable content identity when cached, object identity otherwise."""
        return self.cache_key or self.uid

    def add_table(self, table: ColumnTable) -> None:
        if table.name in self._tables:
            raise ValueError(f"duplicate table {table.name!r}")
        self._tables[table.name] = table
        # Post-hoc mutation invalidates any previous identity (content
        # key and uid alike) so memoized executions never alias.
        self.cache_key = None
        self.uid = f"anondb-{next(_uid_counter)}"

    def table(self, name: str) -> ColumnTable:
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(
                f"database {self.name!r} has no table {name!r}; "
                f"available: {sorted(self._tables)}"
            ) from None

    def add_rollup(self, rollup) -> None:
        """Register a materialized rollup
        (:class:`repro.rollup.table.RollupTable`).

        Deliberately does *not* invalidate the database identity: a
        rollup is derived data over unchanged base tables, so memoized
        base-table executions stay valid (routing happens upstream of
        the execution cache, so a routed answer is never stored in it)."""
        if rollup.base_table not in self._tables:
            raise KeyError(
                f"rollup {rollup.name!r} references unknown base table "
                f"{rollup.base_table!r}"
            )
        self._rollups[rollup.name] = rollup

    def rollup(self, name: str):
        try:
            return self._rollups[name]
        except KeyError:
            raise KeyError(
                f"database {self.name!r} has no rollup {name!r}; "
                f"available: {sorted(self._rollups)}"
            ) from None

    @property
    def rollup_names(self) -> tuple[str, ...]:
        return tuple(self._rollups)

    def row_table(self, name: str) -> RowTable:
        """Row-layout twin of a table (materialised on first use)."""
        if name not in self._row_tables:
            self._row_tables[name] = RowTable(self.table(name))
        return self._row_tables[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __getitem__(self, name: str) -> ColumnTable:
        return self.table(name)

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(self._tables)

    @property
    def nbytes(self) -> int:
        return sum(table.nbytes for table in self._tables.values())

    @property
    def encoded_nbytes(self) -> int:
        """Bytes the stored (possibly compressed) columns occupy."""
        return sum(table.encoded_nbytes for table in self._tables.values())

    def summary(self) -> dict[str, dict[str, int]]:
        """Row/byte counts per table (for reports and examples)."""
        return {
            name: {"rows": table.n_rows, "bytes": table.nbytes}
            for name, table in self._tables.items()
        }
