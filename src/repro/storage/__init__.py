"""Storage substrate: columnar (DSM) tables.

The row (NSM) layout is not stored twice: DBMS R's page traffic is
derived from the column dtypes by :func:`repro.engines.morsel.row_page_geometry`.
"""

from repro.storage.column import Column, ColumnTable
from repro.storage.encoding import EncodedColumn, encode_columns
from repro.storage.catalog import Database
from repro.storage.zonemap import CHUNK_ROWS, ColumnZoneMap, build_zone_map

__all__ = [
    "CHUNK_ROWS",
    "Column",
    "ColumnTable",
    "ColumnZoneMap",
    "Database",
    "EncodedColumn",
    "build_zone_map",
    "encode_columns",
]
