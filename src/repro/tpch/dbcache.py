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
``<root>/dbgen/<key>/`` holds the database's payload
(:meth:`repro.storage.Database.payload`): one ``<stem>.npy`` file per
payload array -- raw and encoded columns, zone maps, partitioning
metadata and rollup tables -- plus a ``meta.json`` holding the payload
meta, ``"format"`` and ``"encoded": true`` (the load-time encoding
policy already ran over the columns).  Directories are populated under
a temporary name and renamed into place, so a killed writer never
leaves a half-readable entry.  Arrays load back memory-mapped
(``mmap_mode="r"``): a cache hit costs page faults, not a full read, and
parallel workers share the page cache.

This is format 4; formats 1-3 (raw columns, no zone maps, no
partitioning or rollups) predate it.  An entry in another format, or
one whose files are damaged, is a miss: :func:`load` removes it, and the
regenerated database is persisted in its place.

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
from repro.storage import Database, encode_columns

#: Databases below this size are regenerated rather than persisted.
MIN_PERSIST_BYTES = 8 * 1024 * 1024

#: In-process memo capacity (distinct database identities per process).
MEMO_ENTRIES = 8

_FORMAT_VERSION = 4

#: key -> the stored Database; each hit gets a :meth:`Database.copy`,
#: sharing its columns, zone maps, partitionings and rollups.
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


def load(key: str) -> Database | None:
    """Database for ``key`` from the in-process memo or disk, else None."""
    stored = _memo.get(key)
    if stored is not None:
        return stored.copy()
    if not settings.enabled("disk_cache"):
        return None
    directory = _entry_dir(key)
    if not directory.is_dir():
        return None
    try:
        meta = json.loads((directory / "meta.json").read_text())
        if meta["format"] != _FORMAT_VERSION:
            raise ValueError(f"format {meta['format']!r}")
        arrays = {path.stem: np.load(path, mmap_mode="r") for path in directory.glob("*.npy")}
        stored = Database.from_payload(meta, arrays)
    except (OSError, EOFError, ValueError, KeyError):
        # Stale or damaged: drop it, so the regenerated database is
        # persisted in its place instead of every process paying dbgen.
        shutil.rmtree(directory, ignore_errors=True)
        return None
    stored.cache_key = key
    _memo.put(key, stored)
    return stored.copy()


def store(key: str, db: Database) -> Database:
    """Record a freshly generated database; returns a cache-backed view.

    Raw columns go through the load-time encoding policy first.  Always
    memoises in-process; persists to disk when enabled and the database
    is worth serialising.  The returned Database is a copy of the
    memoised one, as every hit is.
    """
    stored = db.copy(encode_columns)
    stored.cache_key = key
    meta, arrays = stored.payload()
    _memo.put(key, stored)
    if settings.enabled("disk_cache") and db.nbytes >= MIN_PERSIST_BYTES:
        try:
            _persist(key, {"format": _FORMAT_VERSION, "encoded": True, **meta}, arrays)
        except OSError:
            pass  # a full/read-only disk must never fail generation
    return stored.copy()


def _persist(key: str, meta: dict, arrays: dict) -> None:
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
        for stem, array in arrays.items():
            np.save(staging / f"{stem}.npy", array)
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
