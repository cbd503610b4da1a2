"""A stored dbgen cache entry reproduces the pinned bytes file for file.

``pinned_dbcache_entries.json`` (see ``generate_pinned_dbcache.py``) was
written before the cache serialized databases through
``Database.payload()``; every ``meta.json`` and ``.npy`` byte must still
match, so entries persisted by either revision serve the other.
"""

from __future__ import annotations

from generate_pinned_dbcache import stored_entries
from pinned import load

from repro.tpch import dbcache


def test_stored_entries_match_pinned(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
    monkeypatch.setattr(dbcache, "MIN_PERSIST_BYTES", 0)
    assert stored_entries(tmp_path) == load("dbcache_entries")
