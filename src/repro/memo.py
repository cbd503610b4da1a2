"""The one bounded in-process cache every memo table uses.

Hash-table builds, compiled programs, chooser decisions, resolved
selection parameters, engine runs, lowered statements and generated
databases are all memoized per process through :class:`BoundedCache`:
one lock, one LRU bound by entry count, one set of counters.  The
process-wide instances are created by :func:`shared` and listed in
:data:`SHARED`, which is what the query service's
``repro_cache_*{cache}`` metrics read.

This module imports nothing from ``repro``: any layer may import it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

_MISSING = object()


class BoundedCache:
    """Thread-safe LRU map bounded by entry count.

    :meth:`get` counts a hit or a miss; :meth:`put` stores a value
    unless the key is already present and returns the value the cache
    holds, so threads that miss one key at once converge on the value
    stored first.  :meth:`get_or_build` is the two together, with
    ``build`` running outside the lock.
    """

    def __init__(self, name: str, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = self.misses = self.evictions = 0

    def get(self, key, default=None):
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key, value):
        with self._lock:
            value = self._entries.setdefault(key, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
            return value

    def get_or_build(self, key, build):
        value = self.get(key, _MISSING)
        if value is _MISSING:
            value = self.put(key, build())
        return value

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.evictions = 0

    def stats(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries),
                "capacity": self.capacity,
            }


#: The process-wide caches by name, in creation order.
SHARED: dict[str, BoundedCache] = {}


def shared(name: str, capacity: int) -> BoundedCache:
    """A new process-wide cache, listed in :data:`SHARED` under ``name``."""
    cache = SHARED[name] = BoundedCache(name, capacity)
    return cache
