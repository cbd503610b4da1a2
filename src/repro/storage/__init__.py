"""Storage substrate: columnar (DSM) and row (NSM) table layouts."""

from repro.storage.column import Column, ColumnTable
from repro.storage.encoding import EncodedColumn, encode_columns
from repro.storage.row import DEFAULT_PAGE_BYTES, RowTable
from repro.storage.catalog import Database
from repro.storage.zonemap import CHUNK_ROWS, ColumnZoneMap, build_zone_map

__all__ = [
    "CHUNK_ROWS",
    "Column",
    "ColumnTable",
    "ColumnZoneMap",
    "Database",
    "DEFAULT_PAGE_BYTES",
    "EncodedColumn",
    "RowTable",
    "build_zone_map",
    "encode_columns",
]
