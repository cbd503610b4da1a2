"""Database catalog: named tables in both layouts.

Engines receive a :class:`Database` and pick the layout they execute
on; row tables are materialised lazily so column-only experiments do not
pay for the row copies.

A database crosses a process or disk boundary as one payload
(:meth:`Database.payload` / :meth:`Database.from_payload`): a json-safe
meta plus a flat ``{stem: array}`` mapping.  The dbgen cache
(:mod:`repro.tpch.dbcache`) writes each array as ``<stem>.npy`` next to
``meta.json``; the shm transport (:mod:`repro.storage.shm`) maps each
into one segment.  Stems, per part of each piece's own payload:

- ``<table>.<column>`` -- a raw column;
- ``<table>.<column>.<part>`` -- an encoded column (meta ``encodings``);
- ``<table>.<column>.zm.<part>`` -- its zone map (meta ``zone_maps``);
- ``<table>.ptn.<part>`` -- a table's partitioning (meta ``partitioning``);
- ``rollup.<name>.<part>`` -- a rollup table (meta ``rollups``).
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.storage.column import ColumnTable
from repro.storage.encoding import EncodedColumn
from repro.storage.zonemap import ColumnZoneMap

_uid_counter = itertools.count()


class Database:
    """A collection of named :class:`ColumnTable` instances.

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

    def twin(self, name: str, tables: dict[str, ColumnTable]) -> "Database":
        """A database named ``name`` holding this one's tables, those in
        ``tables`` replaced (reordered, split or decoded copies); the
        rest are shared by reference.  Rollups are not carried over."""
        twin = Database(name=name, scale_factor=self.scale_factor)
        for table_name, table in self._tables.items():
            twin.add_table(tables.get(table_name, table))
        return twin

    def copy(self, encode=None) -> "Database":
        """Fresh Database and ColumnTable wrappers over this database's
        columns, zone maps, partitionings and rollups, under the same
        identity: a holder may attach to its copy without affecting
        others (the dbcache memo hands one out per hit).  ``encode``
        replaces each table's columns first (:meth:`ColumnTable.copy`);
        that copy holds differently encoded data, so its identity is
        fresh."""
        copy = Database(name=self.name, scale_factor=self.scale_factor)
        for table in self._tables.values():
            copy.add_table(table.copy(encode))
        copy._rollups = dict(self._rollups)
        if encode is None:
            copy.cache_key = self.cache_key
        return copy

    def payload(self) -> tuple[dict, dict[str, np.ndarray]]:
        """(json-safe meta, ``{stem: array}``) of every column, zone map,
        partitioning and rollup (stems in the module docstring).  Zone
        maps not built yet are built here."""
        arrays: dict[str, np.ndarray] = {}

        def add(stem: str, piece) -> dict:
            meta, parts = piece.payload()
            for part, array in parts.items():
                arrays[f"{stem}.{part}"] = array
            return {**meta, "parts": sorted(parts)}

        encodings, zone_maps, partitioning = {}, {}, {}
        for table_name, table in self._tables.items():
            encodings[table_name] = {}
            for column_name in table.column_names:
                stem = f"{table_name}.{column_name}"
                encoded = table.encoding(column_name)
                if encoded is None:
                    arrays[stem] = table[column_name]
                else:
                    encodings[table_name][column_name] = add(stem, encoded)
            zone_maps[table_name] = {
                column_name: add(f"{table_name}.{column_name}.zm", table.zone_map(column_name))
                for column_name in table.column_names
            }
            if table.partitioning is not None:
                partitioning[table_name] = add(f"{table_name}.ptn", table.partitioning)
        meta = {
            "name": self.name,
            "scale_factor": self.scale_factor,
            "tables": {name: list(table.column_names) for name, table in self._tables.items()},
            "encodings": encodings,
            "zone_maps": zone_maps,
            "partitioning": partitioning,
            "rollups": {
                name: add(f"rollup.{name}", rollup) for name, rollup in self._rollups.items()
            },
        }
        return meta, arrays

    @classmethod
    def from_payload(cls, meta: dict, arrays: dict) -> "Database":
        """The database :meth:`payload` described, over ``arrays`` as
        given (memory-mapped files or shm views stay zero-copy).  Its
        identity is fresh; callers that know the content set
        ``cache_key``."""
        from repro.rollup.partition import Partitioning
        from repro.rollup.table import RollupTable

        def parts(stem: str, piece_meta: dict) -> dict:
            return {part: arrays[f"{stem}.{part}"] for part in piece_meta["parts"]}

        db = cls(name=meta["name"], scale_factor=meta["scale_factor"])
        for table_name, column_names in meta["tables"].items():
            table = ColumnTable(table_name)
            encodings = meta["encodings"][table_name]
            for column_name in column_names:
                stem = f"{table_name}.{column_name}"
                codec = encodings.get(column_name)
                table.add_column(column_name, arrays[stem] if codec is None else (
                    EncodedColumn.from_payload(column_name, codec, parts(stem, codec))
                ))
            for column_name, zone_meta in meta["zone_maps"][table_name].items():
                table.set_zone_map(column_name, ColumnZoneMap.from_payload(
                    zone_meta, parts(f"{table_name}.{column_name}.zm", zone_meta)
                ))
            partition_meta = meta["partitioning"].get(table_name)
            if partition_meta is not None:
                table.set_partitioning(Partitioning.from_payload(
                    partition_meta, parts(f"{table_name}.ptn", partition_meta)
                ))
            db.add_table(table)
        for name, rollup_meta in meta["rollups"].items():
            db.add_rollup(RollupTable.from_payload(rollup_meta, parts(f"rollup.{name}", rollup_meta)))
        return db

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
