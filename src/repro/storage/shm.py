"""Shared-memory column transport for multi-process execution.

The morsel-driven process executor (:mod:`repro.core.parallel`) must
hand every worker the same TPC-H database without serialising gigabytes
of column payloads through pipes -- the whole point of morsel
parallelism is that workers *share* the base data and only exchange
tiny work descriptors and per-morsel profiles (Leis et al., SIGMOD'14).

This module moves a :class:`repro.storage.Database` across process
boundaries through **one** ``multiprocessing.shared_memory`` segment:

- :func:`export_database` copies every array of the database's payload
  (:meth:`Database.payload`: raw columns, the *encoded* payload arrays
  of compressed columns, zone maps, partitioning metadata and rollup
  tables) into a single segment, once, each on a 64-byte boundary.  It
  returns a :class:`SharedDatabase` handle whose picklable
  :attr:`~SharedDatabase.manifest` is the payload meta plus
  ``segment``, ``identity`` and ``layout``: ``{stem: (dtype, length,
  offset)}`` for every array.  Encoded columns travel compressed, so the
  segment shrinks by the compression ratio.
- :func:`attach_database` (worker side) attaches the segment and
  rebuilds the ``Database`` (:meth:`Database.from_payload`) from
  zero-copy numpy views over the mapping.  The views are read-only:
  workers share one physical copy, so writes would be cross-process
  data races.

Lifecycle
---------
The exporting process owns the segment: ``close()`` drops its mapping,
``unlink()`` removes the name from the system.  :class:`SharedDatabase`
registers an ``atexit`` unlink and works as a context manager, so the
segment is reclaimed on normal exit, on exceptions, and on Ctrl-C in
the parent.  Workers call :meth:`AttachedDatabase.close` (also hooked
via ``atexit``) to drop their mapping; they never unlink.

CPython 3.11's ``SharedMemory`` registers *attached* segments with the
``resource_tracker`` as if they were owned (bpo-39959).  That is
harmless in this module's topology -- pool workers share the
exporter's tracker process, where the duplicate registration collapses
into the owner's single entry (see the note in
:func:`attach_database`) -- and it doubles as a safety net: if every
process dies without cleanup, the tracker unlinks the segment itself.

Pickling guard
--------------
``ColumnTable.__reduce__`` raises: column payloads must cross process
boundaries through this module, never through ``pickle``.  Sending a
table through a pipe silently duplicates the working set per worker
and is always a bug.
"""

from __future__ import annotations

import atexit
from multiprocessing import shared_memory

import numpy as np

from repro.storage.catalog import Database

#: Payload arrays start on cache-line boundaries inside the segment.
_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class SharedDatabase:
    """Owner handle for a database exported into one shm segment."""

    def __init__(self, segment: shared_memory.SharedMemory, manifest: dict):
        self._segment = segment
        self.manifest = manifest
        self._unlinked = False
        self._closed = False
        atexit.register(self.unlink)

    @property
    def segment_name(self) -> str:
        return self.manifest["segment"]

    @property
    def nbytes(self) -> int:
        return self._segment.size

    def close(self) -> None:
        """Drop this process's mapping (the name keeps existing)."""
        if not self._closed:
            self._closed = True
            self._segment.close()

    def disown_atexit(self) -> None:
        """Hand exit-time cleanup to an adopting owner (a worker pool or a
        shard cluster).  The owner registers ONE atexit callback with an
        explicit teardown order — sockets, then child processes, then
        segments — instead of N independent unlink hooks racing whatever
        else runs at interpreter exit.  ``unlink()`` itself still works
        and stays idempotent."""
        atexit.unregister(self.unlink)

    def unlink(self) -> None:
        """Remove the segment from the system.  Idempotent; safe to call
        from ``finally`` blocks, signal handlers and ``atexit``."""
        if self._unlinked:
            return
        self._unlinked = True
        self.close()
        try:
            self._segment.unlink()
        except FileNotFoundError:
            pass  # another cleanup path won the race
        atexit.unregister(self.unlink)

    def __enter__(self) -> "SharedDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.unlink()


class AttachedDatabase:
    """Worker-side handle: a Database of views over an attached segment."""

    def __init__(self, database: Database, segment: shared_memory.SharedMemory):
        self.database = database
        self._segment = segment
        self._closed = False
        atexit.register(self.close)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Views into the mapping keep the buffer alive; drop the tables
        # first so close() does not export pointers to unmapped pages.
        self.database._tables.clear()
        try:
            self._segment.close()
        except BufferError:
            pass  # a live caller-held view pins the mapping; leak it
        atexit.unregister(self.close)

    def __enter__(self) -> Database:
        return self.database

    def __exit__(self, *exc_info) -> None:
        self.close()


def export_database(db: Database, name: str | None = None) -> SharedDatabase:
    """Copy the payload of ``db`` into one shared-memory segment.

    The returned handle's :attr:`~SharedDatabase.manifest` is small and
    picklable; ship it to workers and :func:`attach_database` there.
    """
    meta, arrays = db.payload()
    layout: dict[str, tuple[str, int, int]] = {}
    offset = 0
    for stem, array in arrays.items():
        offset = _aligned(offset)
        layout[stem] = (array.dtype.str, len(array), offset)
        offset += array.nbytes
    segment = shared_memory.SharedMemory(create=True, size=max(offset, 1), name=name)
    try:
        for stem, (dtype, length, start) in layout.items():
            np.ndarray((length,), dtype=dtype, buffer=segment.buf, offset=start)[:] = arrays[stem]
    except BaseException:
        segment.close()
        segment.unlink()
        raise
    manifest = {**meta, "segment": segment.name, "identity": db.identity, "layout": layout}
    return SharedDatabase(segment, manifest)


def attach_database(manifest: dict) -> AttachedDatabase:
    """Rebuild a Database from an exported segment (worker side).

    Columns are zero-copy read-only views over the shared mapping; the
    database's ``cache_key`` is the exporter's identity, so execution
    caches and :func:`repro.engines.morsel.shared_structure` treat the
    attached copy as the same content in every worker.
    """
    segment = shared_memory.SharedMemory(name=manifest["segment"])
    # CPython registers attached segments with the resource_tracker as
    # if they were owned (bpo-39959).  Workers spawned by WorkerPool
    # SHARE the exporter's tracker process, where re-registration of an
    # already-tracked name is a no-op and the owner's unlink clears the
    # single entry -- so no corrective unregister is needed (and doing
    # one would strip the owner's registration).  Attaching from an
    # unrelated process tree would need SharedMemory(track=False)
    # (Python >= 3.13); this module does not support that topology.
    try:
        arrays = {}
        for stem, (dtype, length, offset) in manifest["layout"].items():
            view = np.ndarray((length,), dtype=dtype, buffer=segment.buf, offset=offset)
            view.flags.writeable = False
            arrays[stem] = view
        db = Database.from_payload(manifest, arrays)
        db.cache_key = manifest["identity"]
    except BaseException:
        segment.close()
        raise
    return AttachedDatabase(db, segment)
