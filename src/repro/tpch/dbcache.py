"""On-disk + in-process cache for generated TPC-H databases.

Every pytest session, benchmark run and figure regeneration used to pay
dbgen again for the same ``(scale_factor, seed, tables, skew)``
combination -- tens of seconds at the benchmark scale factors.  This
module persists generated databases under ``~/.cache/repro`` (override
with ``REPRO_CACHE_DIR``; disable persistence with
``REPRO_DISK_CACHE=0``) and memoises them in-process, so a warm machine
pays once.

Cache identity
--------------
The generator streams one ``numpy`` Generator across the tables in a
fixed order, so the produced arrays depend on the *exact set* of tables
generated -- including the dependencies ``generate_database`` adds
automatically (lineitem pulls in orders, orders pulls in customer).
The cache key therefore uses the dependency-expanded table set, in
generation order, never the raw request.

Disk layout
-----------
``<root>/dbgen/<key>/`` holds one ``<table>.<column>.npy`` file per
raw column -- or one ``<table>.<column>.<part>.npy`` file per payload
array of an encoded column (:mod:`repro.storage.encoding`) -- plus a
``meta.json`` describing the key, schema, and codec descriptors.
Directories are populated under a temporary name and renamed into
place, so a killed writer never leaves a half-readable entry.  Columns
load back memory-mapped (``mmap_mode="r"``): a cache hit costs page
faults, not a full read, and parallel workers share the page cache.
Encoded entries are 2-4x smaller on disk, so both the fault traffic
and the cache footprint shrink accordingly.

Format 2 stores the encoded form; format-1 entries (raw columns), and
any entry whose meta does not say ``"encoded": true``, are still
readable and are policy-encoded in memory on load.

Format 3 additionally persists per-column zone maps
(:mod:`repro.storage.zonemap`) as ``<table>.<column>.zm.<part>.npy``
files, so a warm load attaches pruning statistics without a build pass.
Formats 1 and 2 stay readable; their zone maps are built lazily on
first use.  A persisted code-domain map is only attached when the
in-memory column carries the matching encoding; otherwise the lazy
build recomputes the statistics.

Format 4 additionally persists partitioning metadata
(:mod:`repro.rollup.partition`) as ``<table>.ptn.<part>.npy`` files and
materialized rollup tables (:mod:`repro.rollup.table`) as
``rollup.<name>.<part>.npy`` files, so a partitioned database with
attached rollups round-trips through :func:`store`/:func:`load` with
its routing surface intact.  Formats 1-3 stay readable (they simply
carry no partitioning or rollups).

Databases smaller than :data:`MIN_PERSIST_BYTES` are not persisted
(they regenerate faster than they deserialise, and the test-suite's
tiny fixtures would otherwise litter the cache); they still hit the
in-process memo.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro import memo, settings
from repro.storage import ColumnTable, Database, EncodedColumn, encode_columns
from repro.storage import ColumnZoneMap, build_zone_map

#: Databases below this size are regenerated rather than persisted.
MIN_PERSIST_BYTES = 8 * 1024 * 1024

#: In-process memo capacity (distinct database identities per process).
MEMO_ENTRIES = 8

_FORMAT_VERSION = 4
_READABLE_FORMATS = (1, 2, 3, 4)

#: key -> {"meta": dict, "tables": {name: {column: ndarray}},
#:         "zone_maps": {name: {column: ColumnZoneMap}},
#:         "partitionings": {name: Partitioning},
#:         "rollups": {name: RollupTable}}
_memo = memo.shared("dbcache", MEMO_ENTRIES)


def canonical_tables(tables) -> tuple[str, ...]:
    """Dependency-expanded table set in generation order.

    Mirrors the expansion in
    :func:`repro.tpch.dbgen.generate_database`; the generated content is
    a function of this set, not of the raw request.
    """
    from repro.tpch.dbgen import ALL_TABLES

    requested = set(tables)
    unknown = requested - set(ALL_TABLES)
    if unknown:
        raise ValueError(f"unknown tables: {sorted(unknown)}")
    if "lineitem" in requested:
        requested.add("orders")
    if "orders" in requested:
        requested.add("customer")
    return tuple(name for name in ALL_TABLES if name in requested)


def database_key(
    scale_factor: float, seed: int, tables, skew: float | None
) -> str:
    """Stable, filesystem-safe identity of one generated database."""
    expanded = canonical_tables(tables)
    skew_part = "none" if skew is None else repr(float(skew))
    return (
        f"tpch-sf{float(scale_factor)!r}-seed{int(seed)}"
        f"-skew{skew_part}-{'_'.join(expanded)}"
    )


def _entry_dir(key: str) -> Path:
    return settings.cache_dir() / "dbgen" / key


def _attach_zone_maps(db: Database, zone_maps: dict) -> None:
    """Attach cached zone maps where they still describe the in-memory
    column: value-domain maps always do (codec ``compare`` is
    bit-identical to the value comparison), code-domain maps only next
    to the encoding they were built from."""
    for table_name, columns in zone_maps.items():
        if table_name not in db:
            continue
        table = db.table(table_name)
        for column, zone_map in columns.items():
            if column not in table.column_names:
                continue
            if zone_map.domain != "value":
                encoded = table.encoding(column)
                if encoded is None or encoded.codec_kind != zone_map.domain:
                    continue  # lazy build recomputes value-domain stats
            table.set_zone_map(column, zone_map)


def _build_database(
    key: str,
    meta: dict,
    tables: dict,
    zone_maps: dict | None = None,
    partitionings: dict | None = None,
    rollups: dict | None = None,
) -> Database:
    """Fresh Database/ColumnTable wrappers over (shared) column arrays.

    Wrappers are rebuilt per call so callers that mutate their Database
    (``add_table`` of derived tables, lazily materialised row twins)
    never affect other holders of the same cached arrays.  Partitioning
    metadata and rollup tables are immutable and shared as-is.
    """
    db = Database(
        name=meta["name"], scale_factor=meta["scale_factor"]
    )
    for table_name in meta["tables"]:
        db.add_table(ColumnTable(table_name, dict(tables[table_name])))
    if zone_maps:
        _attach_zone_maps(db, zone_maps)
    for table_name, partitioning in (partitionings or {}).items():
        if table_name in db:
            db.table(table_name).set_partitioning(partitioning)
    for rollup in (rollups or {}).values():
        db.add_rollup(rollup)
    db.cache_key = key
    return db


def _memo_put(
    key: str,
    meta: dict,
    tables: dict,
    zone_maps: dict,
    partitionings: dict | None = None,
    rollups: dict | None = None,
) -> None:
    _memo.put(key, {
        "meta": meta,
        "tables": tables,
        "zone_maps": zone_maps,
        "partitionings": partitionings or {},
        "rollups": rollups or {},
    })


def _extract(db: Database) -> tuple[dict, dict, dict, dict, dict]:
    """Pull the stored column objects (raw arrays or EncodedColumns),
    policy-encoding any raw ones, building their zone maps, and
    describe everything -- including partitioning metadata and rollup
    tables -- in the meta."""
    tables = {}
    zone_maps: dict[str, dict[str, ColumnZoneMap]] = {}
    partitionings: dict[str, object] = {}
    for name in db.table_names:
        table = db.table(name)
        columns = {}
        for column in table.column_names:
            encoded = table.encoding(column)
            columns[column] = encoded if encoded is not None else table[column]
        tables[name] = encode_columns(columns)
        zone_maps[name] = {
            column: build_zone_map(value)
            for column, value in tables[name].items()
        }
        partitioning = getattr(table, "partitioning", None)
        if partitioning is not None:
            partitionings[name] = partitioning
    rollups = {name: db.rollup(name) for name in getattr(db, "rollup_names", ())}
    meta = {
        "format": _FORMAT_VERSION,
        # The encoding policy already ran over this entry, so a warm
        # load can skip re-probing the deliberately-raw columns.
        "encoded": True,
        "name": db.name,
        "scale_factor": db.scale_factor,
        "tables": {
            name: list(db.table(name).column_names) for name in db.table_names
        },
        "encodings": {
            name: {
                column: _describe(value)
                for column, value in columns.items()
                if isinstance(value, EncodedColumn)
            }
            for name, columns in tables.items()
        },
        "zone_maps": {
            name: {
                column: {**zm.payload()[0], "parts": sorted(zm.payload()[1])}
                for column, zm in columns.items()
            }
            for name, columns in zone_maps.items()
        },
        "partitioning": {
            name: {
                **partitioning.payload()[0],
                "parts": sorted(partitioning.payload()[1]),
            }
            for name, partitioning in partitionings.items()
        },
        "rollups": {
            name: {
                **rollup.payload()[0],
                "parts": sorted(rollup.payload()[1]),
            }
            for name, rollup in rollups.items()
        },
    }
    return meta, tables, zone_maps, partitionings, rollups


def _describe(column: EncodedColumn) -> dict:
    codec_meta, arrays = column.payload()
    return {**codec_meta, "parts": sorted(arrays)}


def load(key: str) -> Database | None:
    """Database for ``key`` from the in-process memo or disk, else None."""
    entry = _memo.get(key)
    if entry is not None:
        return _build_database(
            key,
            entry["meta"],
            entry["tables"],
            entry.get("zone_maps"),
            entry.get("partitionings"),
            entry.get("rollups"),
        )
    if not settings.enabled("disk_cache"):
        return None
    directory = _entry_dir(key)
    meta_path = directory / "meta.json"
    try:
        meta = json.loads(meta_path.read_text())
    except (OSError, ValueError):
        return None
    if meta.get("format") not in _READABLE_FORMATS:
        return None
    encodings = meta.get("encodings", {})
    tables: dict[str, dict] = {}
    try:
        for table_name, columns in meta["tables"].items():
            loaded = {}
            for column in columns:
                descriptor = encodings.get(table_name, {}).get(column)
                if descriptor is None:
                    loaded[column] = np.load(
                        directory / f"{table_name}.{column}.npy", mmap_mode="r"
                    )
                    continue
                arrays = {
                    part: np.load(
                        directory / f"{table_name}.{column}.{part}.npy",
                        mmap_mode="r",
                    )
                    for part in descriptor["parts"]
                }
                loaded[column] = EncodedColumn.from_payload(column, descriptor, arrays)
            # Entries persisted with the policy applied need no second
            # pass; format-1 (all-raw) entries and entries written
            # without it are brought up to the in-memory policy.
            tables[table_name] = loaded if meta.get("encoded") else encode_columns(loaded)
        zone_maps = _load_zone_maps(directory, meta)
        partitionings = _load_partitionings(directory, meta)
        rollups = _load_rollups(directory, meta)
    except (OSError, ValueError, KeyError):
        return None
    _memo_put(key, meta, tables, zone_maps, partitionings, rollups)
    return _build_database(key, meta, tables, zone_maps, partitionings, rollups)


def _load_zone_maps(directory: Path, meta: dict) -> dict:
    """Memory-mapped zone maps of a format-3 entry ({} for older
    formats: the lazy per-column build covers them)."""
    out: dict[str, dict[str, ColumnZoneMap]] = {}
    for table_name, columns in meta.get("zone_maps", {}).items():
        rebuilt = {}
        for column, descriptor in columns.items():
            arrays = {
                part: np.load(
                    directory / f"{table_name}.{column}.zm.{part}.npy",
                    mmap_mode="r",
                )
                for part in descriptor["parts"]
            }
            rebuilt[column] = ColumnZoneMap.from_payload(descriptor, arrays)
        out[table_name] = rebuilt
    return out


def _load_partitionings(directory: Path, meta: dict) -> dict:
    """Partitioning metadata of a format-4 entry ({} for older formats)."""
    from repro.rollup.partition import Partitioning

    out: dict[str, Partitioning] = {}
    for table_name, descriptor in meta.get("partitioning", {}).items():
        arrays = {
            part: np.load(
                directory / f"{table_name}.ptn.{part}.npy", mmap_mode="r"
            )
            for part in descriptor["parts"]
        }
        out[table_name] = Partitioning.from_payload(descriptor, arrays)
    return out


def _load_rollups(directory: Path, meta: dict) -> dict:
    """Rollup tables of a format-4 entry ({} for older formats)."""
    from repro.rollup.table import RollupTable

    out: dict[str, RollupTable] = {}
    for name, descriptor in meta.get("rollups", {}).items():
        arrays = {
            part: np.load(
                directory / f"rollup.{name}.{part}.npy", mmap_mode="r"
            )
            for part in descriptor["parts"]
        }
        out[name] = RollupTable.from_payload(descriptor, arrays)
    return out


def store(key: str, db: Database) -> Database:
    """Record a freshly generated database; returns a cache-backed view.

    Always memoises in-process; persists to disk when enabled and the
    database is worth serialising.  The returned Database is rebuilt
    from the memoised arrays so every caller sees the same wrapper
    semantics whether it hit or missed.
    """
    meta, tables, zone_maps, partitionings, rollups = _extract(db)
    _memo_put(key, meta, tables, zone_maps, partitionings, rollups)
    if settings.enabled("disk_cache") and db.nbytes >= MIN_PERSIST_BYTES:
        try:
            _persist(key, meta, tables, zone_maps, partitionings, rollups)
        except OSError:
            pass  # a full/read-only disk must never fail generation
    return _build_database(key, meta, tables, zone_maps, partitionings, rollups)


def _persist(
    key: str,
    meta: dict,
    tables: dict,
    zone_maps: dict,
    partitionings: dict | None = None,
    rollups: dict | None = None,
) -> None:
    directory = _entry_dir(key)
    existing = directory / "meta.json"
    if existing.exists():
        try:
            if json.loads(existing.read_text()).get("format") == _FORMAT_VERSION:
                return
        except (OSError, ValueError):
            pass
        # Stale or unreadable format: replace with the current one.
        shutil.rmtree(directory, ignore_errors=True)
    directory.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(
        tempfile.mkdtemp(prefix=f".{key}.tmp-", dir=directory.parent)
    )
    try:
        for table_name, columns in tables.items():
            for column, values in columns.items():
                if isinstance(values, EncodedColumn):
                    _, arrays = values.payload()
                    for part, payload in arrays.items():
                        np.save(
                            staging / f"{table_name}.{column}.{part}.npy",
                            payload,
                        )
                else:
                    np.save(staging / f"{table_name}.{column}.npy", values)
        for table_name, columns in zone_maps.items():
            for column, zone_map in columns.items():
                _, arrays = zone_map.payload()
                for part, payload in arrays.items():
                    np.save(
                        staging / f"{table_name}.{column}.zm.{part}.npy",
                        payload,
                    )
        for table_name, partitioning in (partitionings or {}).items():
            _, arrays = partitioning.payload()
            for part, payload in arrays.items():
                np.save(staging / f"{table_name}.ptn.{part}.npy", payload)
        for name, rollup in (rollups or {}).items():
            _, arrays = rollup.payload()
            for part, payload in arrays.items():
                np.save(staging / f"rollup.{name}.{part}.npy", payload)
        (staging / "meta.json").write_text(json.dumps(meta))
        try:
            staging.rename(directory)
        except OSError:
            # Another process populated the entry first; keep theirs.
            shutil.rmtree(staging, ignore_errors=True)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise


#: Drop the in-process memo (test isolation helper).
clear_memo = _memo.clear
