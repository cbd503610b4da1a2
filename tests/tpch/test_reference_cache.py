"""The TPC-H reference answers go through the execution cache
(:func:`repro.core.execcache.memoized_reference`), and ``q1_reference``'s
slice sums are bit-identical to the per-group masked sums they replace."""

import cProfile
import pstats
import sys
import threading

import numpy as np
import pytest

from repro.analysis.registry import EXPERIMENTS
from repro.core import execcache
from repro.core.execcache import EXECUTION_CACHE
from repro.storage import ColumnTable, Database
from repro.tpch import schema as sc
from repro.tpch.queries import (
    REFERENCE_IMPLEMENTATIONS,
    q1_reference,
    q6_reference,
    q18_reference,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    EXECUTION_CACHE.clear()
    yield
    EXECUTION_CACHE.clear()


def _builds(call) -> dict[str, int]:
    """Runs ``call()`` and returns how often each reference was actually
    computed: calls of the unwrapped function, counted by the profiler."""
    profile = cProfile.Profile()
    profile.runcall(call)
    stats = pstats.Stats(profile).stats
    counts = {}
    for query_id, reference in REFERENCE_IMPLEMENTATIONS.items():
        code = reference.__wrapped__.__code__
        label = (code.co_filename, code.co_firstlineno, code.co_name)
        counts[query_id] = stats[label][1] if label in stats else 0
    return counts


def _repeat(reference, db, times):
    return lambda: [reference(db) for _ in range(times)]


class TestReferenceCache:
    @pytest.mark.parametrize("query_id", sorted(REFERENCE_IMPLEMENTATIONS))
    def test_repeated_calls_build_once(self, tiny_db, query_id):
        reference = REFERENCE_IMPLEMENTATIONS[query_id]
        assert _builds(_repeat(reference, tiny_db, 3))[query_id] == 1
        assert reference(tiny_db) == reference.__wrapped__(tiny_db)

    def test_clear_builds_once_more(self, tiny_db):
        assert _builds(_repeat(q1_reference, tiny_db, 2))["Q1"] == 1
        assert _builds(_repeat(q1_reference, tiny_db, 2))["Q1"] == 0
        EXECUTION_CACHE.clear()
        assert _builds(_repeat(q1_reference, tiny_db, 2))["Q1"] == 1

    def test_disabled_cache_builds_every_call(self, tiny_db, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_CACHE", "0")
        assert _builds(_repeat(q1_reference, tiny_db, 3))["Q1"] == 3
        assert len(EXECUTION_CACHE) == 0

    def test_hits_are_counted_apart(self, tiny_db):
        before = execcache.reference_hits
        _repeat(q18_reference, tiny_db, 3)()
        assert execcache.reference_hits - before == 2
        assert EXECUTION_CACHE.hits == 2

    def test_concurrent_hits_are_all_counted(self, tiny_db):
        """Threads racing on one key: every served answer is counted
        once (a lost update would leave the count below the cache's)."""
        before = execcache.reference_hits
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=_repeat(q6_reference, tiny_db, 200))
                for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert EXECUTION_CACHE.hits + EXECUTION_CACHE.misses == 8 * 200
        assert execcache.reference_hits - before == EXECUTION_CACHE.hits

    def test_callers_cannot_poison_the_cache(self, tiny_db):
        first = q1_reference(tiny_db)
        expected = repr(first)
        for group in first.values():
            group["sum_qty"] = -1.0
        first.clear()
        assert repr(q1_reference(tiny_db)) == expected

        winners = q18_reference(tiny_db)
        expected = dict(winners)
        winners[-1] = 0.0
        assert q18_reference(tiny_db) == expected

    def test_mutated_database_misses(self, tiny_db):
        db = tiny_db.twin(tiny_db.name, {})  # the same tables, a fresh identity
        assert _builds(_repeat(q1_reference, db, 2))["Q1"] == 1
        db.add_table(ColumnTable("scratch", {"x": np.arange(3)}))
        assert _builds(_repeat(q1_reference, db, 2))["Q1"] == 1

    def test_fig15_builds_each_reference_once(self, tiny_db):
        counts = _builds(lambda: EXPERIMENTS["fig15"].execute(db=tiny_db))
        assert counts == {query_id: 1 for query_id in REFERENCE_IMPLEMENTATIONS}

    def test_figure_note_counts_reference_answers(self, tiny_db):
        figure = EXPERIMENTS["fig15"].execute(db=tiny_db)
        # Two engines verified on four queries: the second engine's
        # checks are served.
        assert any(
            "4 reference answers served from the in-process execution cache" in line
            for line in figure.to_text().splitlines()
        )


def _q1_masked(db):
    """``q1_reference`` as a per-group masked loop: the oracle."""
    lineitem = db.table("lineitem")
    mask = lineitem["l_shipdate"] <= sc.DATE_1998_09_02
    flags = lineitem["l_returnflag"][mask]
    status = lineitem["l_linestatus"][mask]
    quantity = lineitem["l_quantity"][mask]
    price = lineitem["l_extendedprice"][mask]
    discount = lineitem["l_discount"][mask]
    tax = lineitem["l_tax"][mask]

    disc_price = price * (1.0 - discount)
    charge = disc_price * (1.0 + tax)
    group_key = flags * 2 + status
    groups = {}
    for key in np.unique(group_key):
        member = group_key == key
        groups[(int(key) // 2, int(key) % 2)] = {
            "sum_qty": float(quantity[member].sum()),
            "sum_base_price": float(price[member].sum()),
            "sum_disc_price": float(disc_price[member].sum()),
            "sum_charge": float(charge[member].sum()),
            "count": int(member.sum()),
        }
    return groups


def _derived(db, rows) -> Database:
    """``db`` with lineitem replaced by the rows ``rows``, in that order."""
    return db.twin(f"{db.name}-derived", {"lineitem": db.table("lineitem").select(rows)})


class TestQ1SliceSums:
    def test_bit_identical_on_small_db(self, small_db):
        assert repr(q1_reference.__wrapped__(small_db)) == repr(_q1_masked(small_db))

    def test_bit_identical_on_a_derived_twin(self, small_db):
        """A shuffled two-thirds of lineitem: other group sizes, other
        summation orders, the same bits as the masked loop."""
        n = small_db.table("lineitem").n_rows
        rows = np.random.default_rng(5).permutation(n)[: 2 * n // 3]
        twin = _derived(small_db, rows)
        result = q1_reference.__wrapped__(twin)
        assert len(result) == 4
        assert repr(result) == repr(_q1_masked(twin))

    def test_no_qualifying_rows(self, tiny_db):
        shipdate = tiny_db.table("lineitem")["l_shipdate"]
        late = _derived(tiny_db, np.flatnonzero(shipdate > sc.DATE_1998_09_02))
        assert q1_reference.__wrapped__(late) == _q1_masked(late) == {}
