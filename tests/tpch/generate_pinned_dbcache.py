"""The pinned dbgen cache entries: the bytes a cache entry holds on disk.

``pinned_dbcache_entries.json`` holds, for two databases, the SHA-256 of
an entry's ``meta.json`` and of every ``.npy`` file in it:

- ``generate_database(0.002, seed=7)`` (the ``tiny_db`` fixture), under
  its own cache key;
- its shipdate-partitioned twin with the default lineitem rollup
  attached (``tests/rollup/test_persistence.py``'s ``BREAKS``), under
  :data:`PARTITIONED_KEY`.

``test_pinned_dbcache.py`` stores both into a private cache directory
and compares, so an entry written by one revision keeps serving the
next.  It was written from ``52689d3``, the commit before
``Database.payload()`` replaced the cache's hand-written column,
zone-map, partitioning and rollup walks; ``python tests/pinned.py
dbcache_entries`` writes it.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from unittest import mock

from pinned import sha256

from repro.rollup import PartitionSpec, build_and_attach, partitioned_database
from repro.tpch import dbcache, generate_database
from repro.tpch.schema import DATE_1998_09_02

#: Cache key the partitioned twin is stored under.
PARTITIONED_KEY = "pinned-partitioned-rollup"

#: The partition breaks of ``tests/rollup/test_persistence.py``.
BREAKS = (2100.0, 2300.0, DATE_1998_09_02 + 0.5)


def _digests(directory: Path) -> dict[str, str]:
    return {
        path.name: sha256(path.read_bytes())
        for path in sorted(directory.iterdir())
    }


def stored_entries(root: Path) -> dict[str, dict[str, str]]:
    """Store both databases under ``root`` (the caller points
    ``REPRO_CACHE_DIR`` there and lowers ``MIN_PERSIST_BYTES`` to 0) and
    return ``{entry: {file name: sha256}}``."""
    db = generate_database(0.002, seed=7)
    dbcache.store(db.cache_key, db)
    partitioned = partitioned_database(db, PartitionSpec("l_shipdate", BREAKS))
    build_and_attach(partitioned)
    dbcache.store(PARTITIONED_KEY, partitioned)
    return {
        "tiny": _digests(root / "dbgen" / db.cache_key),
        "partitioned": _digests(root / "dbgen" / PARTITIONED_KEY),
    }


def collect() -> dict:
    with (
        tempfile.TemporaryDirectory() as root,
        mock.patch.dict(os.environ, {"REPRO_CACHE_DIR": root}),
        mock.patch.object(dbcache, "MIN_PERSIST_BYTES", 0),
    ):
        os.environ.pop("REPRO_DISK_CACHE", None)
        return stored_entries(Path(root))
