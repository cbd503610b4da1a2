"""Columnar (DSM) storage.

High-performance engines (Typer, Tectorwise) and the column-store
extension "DBMS C" read data in decomposed columns, each a contiguous
numpy array — the layout that lets them "operate only on the columns
that are necessary for the query" (Section 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.storage.encoding import EncodedColumn


@dataclass(frozen=True)
class Column:
    """A named, typed, contiguous column."""

    name: str
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.ndim != 1:
            raise ValueError(f"column {self.name!r} must be one-dimensional")
        if not self.values.flags.c_contiguous:
            object.__setattr__(self, "values", np.ascontiguousarray(self.values))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    @property
    def itemsize(self) -> int:
        return self.values.dtype.itemsize

    @property
    def nbytes(self) -> int:
        return self.values.nbytes

    def take(self, indices: np.ndarray) -> np.ndarray:
        return self.values[indices]


class ColumnTable:
    """A table stored column-by-column.

    Columns must share one length.  Access by name; iteration yields
    column names in insertion order (schema order).
    """

    def __init__(self, name: str, columns: dict[str, np.ndarray] | None = None):
        self.name = name
        self._columns: dict[str, Column | EncodedColumn] = {}
        self._zone_maps: dict = {}
        self._partitioning = None
        self._n_rows: int | None = None
        for column_name, values in (columns or {}).items():
            self.add_column(column_name, values)

    def add_column(self, name: str, values) -> None:
        """Add a column: a raw array, a ``Column``, or an
        ``EncodedColumn`` (compressed storage, transparent decode)."""
        if isinstance(values, EncodedColumn):
            column: Column | EncodedColumn = values.renamed(name)
        elif isinstance(values, Column):
            column = Column(name, values.values)
        else:
            column = Column(name, np.asarray(values))
        if self._n_rows is not None and len(column) != self._n_rows:
            raise ValueError(
                f"column {name!r} has {len(column)} rows, table "
                f"{self.name!r} has {self._n_rows}"
            )
        if name in self._columns:
            raise ValueError(f"duplicate column {name!r} in table {self.name!r}")
        self._columns[name] = column
        self._n_rows = len(column)

    def column(self, name: str) -> Column:
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"table {self.name!r} has no column {name!r}; "
                f"available: {sorted(self._columns)}"
            ) from None

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name).values

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __len__(self) -> int:
        return self._n_rows or 0

    @property
    def n_rows(self) -> int:
        return self._n_rows or 0

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self._columns)

    def encoding(self, name: str) -> EncodedColumn | None:
        """The column's encoding, or None when it is stored raw."""
        column = self.column(name)
        return column if isinstance(column, EncodedColumn) else None

    def zone_map(self, name: str):
        """Per-chunk zone map of a column (see
        :mod:`repro.storage.zonemap`), built on first use unless one was
        attached from the dbcache or a shm manifest.  The lazy build is
        a benign race under concurrent readers: both threads compute
        equal statistics and the last write wins."""
        zone_map = self._zone_maps.get(name)
        if zone_map is None:
            from repro.storage.zonemap import build_zone_map

            column = self.column(name)
            source = column if isinstance(column, EncodedColumn) else column.values
            zone_map = build_zone_map(source)
            self._zone_maps[name] = zone_map
        return zone_map

    def set_zone_map(self, name: str, zone_map) -> None:
        """Attach precomputed statistics (dbcache load / shm attach)."""
        self.column(name)  # raises on unknown columns
        self._zone_maps[name] = zone_map

    @property
    def partitioning(self):
        """Clustered-partition metadata
        (:class:`repro.rollup.partition.Partitioning`), or None when the
        table is unpartitioned."""
        return self._partitioning

    def set_partitioning(self, partitioning) -> None:
        """Attach partition metadata.  The table's rows must already be
        clustered accordingly -- builders guarantee this; the bounds are
        validated against the row count as a cheap sanity check."""
        if partitioning is not None and partitioning.n_rows != self.n_rows:
            raise ValueError(
                f"partitioning covers {partitioning.n_rows} rows, table "
                f"{self.name!r} has {self.n_rows}"
            )
        self._partitioning = partitioning

    @property
    def nbytes(self) -> int:
        """Total *logical* bytes across all columns (decoded widths --
        what raw storage would occupy and what the work-profile byte
        accounting is defined over)."""
        return sum(column.nbytes for column in self._columns.values())

    @property
    def encoded_nbytes(self) -> int:
        """Bytes the stored representation actually occupies: payload
        bytes for encoded columns, array bytes for raw ones."""
        return sum(
            column.encoded_nbytes
            if isinstance(column, EncodedColumn)
            else column.nbytes
            for column in self._columns.values()
        )

    def bytes_for(self, column_names) -> int:
        """Bytes occupied by a subset of columns (the traffic a
        column store actually reads for a query)."""
        return sum(self.column(name).nbytes for name in column_names)

    def select(self, mask_or_indices: np.ndarray) -> "ColumnTable":
        """The rows at ``mask_or_indices`` as a new table in this table's
        code spaces (:meth:`EncodedColumn.select`; raw columns stay raw).
        Every reordered or split twin is built this way."""
        result = ColumnTable(self.name)
        for name, column in self._columns.items():
            if isinstance(column, EncodedColumn):
                result.add_column(name, column.select(mask_or_indices))
            else:
                result.add_column(name, column.values[mask_or_indices])
        return result

    def sort_order(self, name: str) -> np.ndarray:
        """The stable row order sorting on column ``name``.  Dictionary
        and FoR codes preserve value order, so those columns sort on
        their narrow codes (numpy radix-sorts them) without decoding."""
        column = self.column(name)
        codes = column.codes_range(0, len(column)) if isinstance(column, EncodedColumn) else None
        return np.argsort(column.values if codes is None else codes, kind="stable")

    def copy(self, encode=None) -> "ColumnTable":
        """A fresh wrapper over the same columns, zone maps and
        partitioning.  ``encode`` maps ``{name: array or EncodedColumn}``
        to the columns to keep instead (the dbcache passes the load-time
        policy, :func:`~repro.storage.encoding.encode_columns`); their
        zone maps are then built on first use."""
        if encode is None:
            result = ColumnTable(self.name, self._columns)
            result._zone_maps = dict(self._zone_maps)
        else:
            result = ColumnTable(self.name, encode({
                name: column if isinstance(column, EncodedColumn) else column.values
                for name, column in self._columns.items()
            }))
        result._partitioning = self._partitioning
        return result

    def decoded(self) -> "ColumnTable":
        """This table with every column a plain (decoded) array."""
        return ColumnTable(
            self.name, {name: column.values for name, column in self._columns.items()}
        )

    def head(self, n: int = 5) -> dict[str, np.ndarray]:
        return {name: column.values[:n] for name, column in self._columns.items()}

    def __reduce__(self):
        # Pickling a table copies its entire payload through a pipe per
        # worker -- exactly what morsel parallelism exists to avoid.
        raise TypeError(
            f"ColumnTable {self.name!r} must not be pickled; ship column "
            f"payloads across processes via repro.storage.shm instead"
        )
