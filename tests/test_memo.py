"""The one bounded cache every memo table uses (:mod:`repro.memo`)."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.memo import BoundedCache


def test_concurrent_builds_converge_and_every_call_is_counted():
    cache = BoundedCache("test", 4)
    n_threads, calls = 8, 300
    start, first_done = threading.Barrier(n_threads), threading.Barrier(n_threads)
    got = [None] * n_threads

    def worker(index):
        start.wait(timeout=10.0)
        got[index] = cache.get_or_build("key", object)
        first_done.wait(timeout=10.0)
        for call in range(calls - 1):  # six keys over four slots: evictions
            cache.get_or_build(call % 6, object)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got[0] is not None
    assert all(value is got[0] for value in got)
    stats = cache.stats()
    assert stats["hits"] + stats["misses"] == n_threads * calls
    assert stats["entries"] == 4
    assert stats["evictions"] > 0


def test_least_recently_used_entry_is_evicted_first():
    cache = BoundedCache("test", 2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # "b" is now the least recently used
    cache.put("c", 3)
    assert cache.get("b") is None
    assert (cache.get("a"), cache.get("c")) == (1, 3)
    assert cache.evictions == 1
    assert len(cache) == 2


def test_put_keeps_the_value_stored_first():
    cache = BoundedCache("test", 2)
    first = cache.put("a", [1])
    assert cache.put("a", [2]) is first
    assert cache.get_or_build("a", lambda: pytest.fail("rebuilt a hit")) is first


def test_a_failed_build_stores_nothing():
    cache = BoundedCache("test", 2)

    def build():
        raise KeyError("no")

    with pytest.raises(KeyError):
        cache.get_or_build("a", build)
    assert len(cache) == 0
    assert cache.misses == 1


def test_clear_resets_entries_and_counters():
    cache = BoundedCache("test", 1)
    cache.get_or_build("a", object)
    cache.get_or_build("a", object)
    cache.put("b", 2)
    cache.clear()
    assert cache.stats() == {
        "hits": 0, "misses": 0, "evictions": 0, "entries": 0, "capacity": 1,
    }


def test_capacity_must_be_positive():
    with pytest.raises(ValueError, match="capacity"):
        BoundedCache("test", 0)
