"""Morsel-driven process pool: work stealing, shm reuse (no dbgen in
workers) and crash cleanup.  Its bit-identity cells, and those of
``run_call``, are declared in the matrix (``tests/matrix``); the tests
here keep their ids."""

from __future__ import annotations

import math
import multiprocessing
from multiprocessing import shared_memory

import pytest

from leaks import shm_segments
from matrix.cells import POOL_MORSEL_ROWS as MORSEL_ROWS
from matrix.suites import cases

from repro.core.parallel import (
    MorselLedger,
    WorkerCrashed,
    WorkerPool,
    merge_worker_partials,
    normalized_call,
)
from repro.engines import ColumnStoreEngine, TectorwiseEngine, TyperEngine
from repro.engines.morsel import MORSEL_ALIGN, morsel_ranges


def segment_exists(name: str) -> bool:
    try:
        probe = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    probe.close()
    return True


class TestNormalizedCall:
    def test_tpch_dispatches_to_query_runner(self):
        method, items = normalized_call(
            TyperEngine(), "run_tpch", ("Q6",), {"predicated": True}
        )
        assert method == "run_q6"
        assert dict(items) == {"predicated": True}

    def test_positional_arguments_become_named(self):
        method, items = normalized_call(TyperEngine(), "run_projection", (3,), {})
        assert method == "run_projection"
        assert dict(items) == {"degree": 3, "simd": False}

    def test_predication_outside_q6_rejected(self):
        with pytest.raises(ValueError, match="Q6"):
            normalized_call(TyperEngine(), "run_tpch", ("Q9",), {"predicated": True})

    def test_method_without_morsel_support_rejected(self):
        class Legacy:
            def run_projection(self, db, degree):
                return None

        with pytest.raises(ValueError, match="morsel"):
            normalized_call(Legacy(), "run_projection", (2,), {})


class TestLedger:
    def _drain(self, ledger, worker_id, morsel_rows=MORSEL_ROWS):
        claims = []
        while True:
            claim = ledger.claim(worker_id, morsel_rows)
            if claim is None:
                return claims
            claims.append(claim)

    def test_single_worker_tiles_its_range(self):
        ctx = multiprocessing.get_context("spawn")
        ledger = MorselLedger(ctx, 1)
        ledger.assign([(0, 10_000)])
        claims = self._drain(ledger, 0)
        assert claims[0][0] == 0 and claims[-1][1] == 10_000
        for (_, prev_hi, _), (lo, _, _) in zip(claims, claims[1:]):
            assert lo == prev_hi
        assert not any(stolen for *_, stolen in claims)
        assert ledger.remaining() == 0

    def test_fast_worker_steals_the_slow_workers_tail(self):
        """Deterministic stealing: worker 1 never claims, so worker 0
        must finish its own range and then repeatedly steal from
        worker 1 until the whole table is processed."""
        n_rows = 50_000
        ctx = multiprocessing.get_context("spawn")
        ledger = MorselLedger(ctx, 2)
        ledger.assign(morsel_ranges(n_rows, 2))
        claims = self._drain(ledger, 0)

        stolen = [claim for claim in claims if claim[2]]
        assert stolen, "exhausting one worker's range must trigger steals"
        covered = sorted((lo, hi) for lo, hi, _ in claims)
        assert covered[0][0] == 0 and covered[-1][1] == n_rows
        for (_, prev_hi), (lo, _) in zip(covered, covered[1:]):
            assert lo == prev_hi, "claims must tile the table exactly"

    def test_steal_boundaries_stay_aligned(self):
        ctx = multiprocessing.get_context("spawn")
        ledger = MorselLedger(ctx, 2)
        n_rows = 12_345  # deliberately not aligned
        ledger.assign(morsel_ranges(n_rows, 2))
        for lo, hi, _ in self._drain(ledger, 0):
            assert lo % MORSEL_ALIGN == 0
            assert hi % MORSEL_ALIGN == 0 or hi == n_rows

    def test_empty_assignment_yields_nothing(self):
        ctx = multiprocessing.get_context("spawn")
        ledger = MorselLedger(ctx, 2)
        ledger.assign([])
        assert ledger.claim(0, MORSEL_ROWS) is None


class TestPoolExecution:
    """Runs on the matrix's 2-worker pool over ``tiny_db``."""

    @cases("parallel::test_pool_results_bit_identical")
    def test_pool_results_bit_identical(self, matrix, cells):
        matrix.check(cells)

    def test_ping(self, matrix):
        assert matrix.pool("tiny").ping() is True

    def test_workers_never_run_dbgen(self, matrix):
        """Workers attach the parent's shm export; generating the
        database again in a worker would defeat the transport.  The
        counters come from the workers' own ``dbgen.GENERATION_COUNT``,
        so any regeneration anywhere in a worker's life shows up."""
        pool = matrix.pool("tiny")
        pool.run_query(TyperEngine(), "run_q6")
        stats = pool.stats()
        assert stats["worker_dbgen_runs"] == 0

    def test_stats_counters(self, matrix, tiny_db):
        pool = matrix.pool("tiny")
        queries_before = pool.queries_run
        pool.run_query(ColumnStoreEngine(), "run_projection", 1)
        stats = pool.stats()
        assert stats["n_workers"] == 2
        assert stats["queries_run"] == queries_before + 1
        n_rows = tiny_db.table("lineitem").n_rows
        # Every claim hands out at most morsel_rows rows, so each query
        # contributes at least ceil(n/morsel_rows) morsels.
        assert stats["total_morsels"] >= math.ceil(n_rows / MORSEL_ROWS)
        assert stats["total_steals"] >= 0
        assert len({worker["pid"] for worker in stats["workers"]}) == 2

    def test_columns_never_cross_via_pickle(self, tiny_db):
        """The transport guarantee: ``ColumnTable.__reduce__`` raises,
        so had any pool code path pickled a table (task messages,
        partials, queue payloads), every test above would have crashed.
        This pins the guard itself."""
        import pickle

        with pytest.raises(TypeError, match="shm"):
            pickle.dumps(tiny_db.table("lineitem"))

    def test_run_after_close_raises(self, tiny_db):
        pool = WorkerPool(tiny_db, n_workers=1, morsel_rows=MORSEL_ROWS)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.run_query(TyperEngine(), "run_q6")
        for call in (pool.ping, pool.stats, pool.metrics_snapshots):
            with pytest.raises(RuntimeError, match="closed"):
                call()

    def test_invalid_morsel_rows_rejected(self, tiny_db):
        with pytest.raises(ValueError, match="multiple"):
            WorkerPool(tiny_db, n_workers=1, morsel_rows=100)


class TestDriverMatrix:
    """``run_call`` is the one execution driver: whatever the stages
    decide (route, decline, prune some, prune all, none of it), either
    dispatcher, finished here or stopped as a partial and finished by
    the caller, the result is the direct engine call's."""

    @cases("parallel::test_equals_direct_call")
    def test_equals_direct_call(self, matrix, cells):
        matrix.check(cells)


class TestCrashRecovery:
    def test_dead_worker_raises_and_segment_unlinks(self, tiny_db):
        pool = WorkerPool(tiny_db, n_workers=2, morsel_rows=MORSEL_ROWS)
        segment = pool._exported.segment_name
        try:
            assert segment_exists(segment)
            pool._processes[0].terminate()
            pool._processes[0].join(timeout=10)
            with pytest.raises(WorkerCrashed, match="died"):
                pool.run_query(TectorwiseEngine(), "run_q1")
        finally:
            pool.close()
        assert not segment_exists(segment), (
            "close() after a crash must still unlink the shm segment"
        )

    def test_close_unlinks_its_semaphores_while_the_pool_is_held(self, tiny_db):
        """The spawn context's queue and ledger locks are named
        semaphores in ``/dev/shm``, unlinked only when freed: close()
        lets them go, not the pool's last reference."""
        before = shm_segments()
        pool = WorkerPool(tiny_db, n_workers=1, morsel_rows=MORSEL_ROWS)
        assert any(name.startswith("sem.") for name in shm_segments() - before)
        pool.close()
        assert shm_segments() - before == set()

    def test_close_is_idempotent(self, tiny_db):
        pool = WorkerPool(tiny_db, n_workers=1, morsel_rows=MORSEL_ROWS)
        pool.close()
        pool.close()


class TestMergeWorkerPartials:
    def test_local_premerge_matches_direct_merge(self, tiny_db):
        """Workers fold their own morsels before replying; folding in
        two stages must merge to the same final result as handing every
        morsel to ``merge_morsels`` directly."""
        engine = TyperEngine()
        n_rows = tiny_db.table("lineitem").n_rows
        ranges = morsel_ranges(n_rows, 4)

        def partials(subset):
            return [
                engine.run_q1(tiny_db, row_range=row_range) for row_range in subset
            ]

        two_stage = engine.merge_morsels(
            tiny_db,
            "run_q1",
            {},
            [
                merge_worker_partials(partials(ranges[:2])),
                merge_worker_partials(partials(ranges[2:])),
            ],
        )
        flat = engine.merge_morsels(tiny_db, "run_q1", {}, partials(ranges))
        assert two_stage.value == flat.value
        assert two_stage.work == flat.work
        assert two_stage.tuples == flat.tuples
