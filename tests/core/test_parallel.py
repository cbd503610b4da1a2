"""Morsel-driven process pool: bit-identity through real worker
processes, work stealing, shm reuse (no dbgen in workers), and crash
cleanup."""

from __future__ import annotations

import math
import multiprocessing
from multiprocessing import shared_memory

import pytest

from repro.core.parallel import (
    MorselLedger,
    WorkerCrashed,
    WorkerPool,
    merge_worker_partials,
    normalized_call,
    run_call,
)
from repro.engines import (
    ALL_ENGINES,
    ColumnStoreEngine,
    TectorwiseEngine,
    TyperEngine,
)
from repro.engines.morsel import MORSEL_ALIGN, morsel_ranges

MORSEL_ROWS = 1024  # small, so tiny_db still splits into many morsels


def segment_exists(name: str) -> bool:
    try:
        probe = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    probe.close()
    return True


@pytest.fixture(scope="module")
def pool(tiny_db):
    with WorkerPool(tiny_db, n_workers=2, morsel_rows=MORSEL_ROWS) as pool:
        yield pool


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
    WORKLOADS = [
        ("run_projection", (4,), {}),
        ("run_selection", (0.5,), {}),
        ("run_join", ("large",), {}),
        ("run_groupby", (), {}),
        ("run_tpch", ("Q1",), {}),
        ("run_tpch", ("Q6",), {"predicated": True}),
        ("run_q9", (), {}),
        ("run_q18", (), {}),
    ]

    @pytest.mark.parametrize("engine_cls", ALL_ENGINES, ids=lambda cls: cls.name)
    def test_pool_results_bit_identical(self, pool, tiny_db, engine_cls):
        engine = engine_cls()
        for method, args, kwargs in self.WORKLOADS:
            parallel = pool.run_query(engine, method, *args, **kwargs)
            single = getattr(engine, method)(tiny_db, *args, **kwargs)
            context = f"{engine.name} {method} {args} {kwargs}"
            assert parallel.value == single.value, context
            assert parallel.tuples == single.tuples, context
            assert parallel.work == single.work, context
            assert parallel.operator_work.keys() == single.operator_work.keys()
            for name, profile in parallel.operator_work.items():
                assert profile == single.operator_work[name], f"{context} {name}"

    def test_ping(self, pool):
        assert pool.ping() is True

    def test_workers_never_run_dbgen(self, pool, tiny_db):
        """Workers attach the parent's shm export; generating the
        database again in a worker would defeat the transport.  The
        counters come from the workers' own ``dbgen.GENERATION_COUNT``,
        so any regeneration anywhere in a worker's life shows up."""
        pool.run_query(TyperEngine(), "run_q6")
        stats = pool.stats()
        assert stats["worker_dbgen_runs"] == 0

    def test_stats_counters(self, pool, tiny_db):
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

    def test_columns_never_cross_via_pickle(self, pool, tiny_db):
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

    def test_invalid_morsel_rows_rejected(self, tiny_db):
        with pytest.raises(ValueError, match="multiple"):
            WorkerPool(tiny_db, n_workers=1, morsel_rows=100)


class TestDriverMatrix:
    """``run_call`` is the one execution driver: whatever the stages
    decide (route, decline, prune some, prune all, none of it), either
    dispatcher, finished here or stopped as a partial and finished by
    the caller, the result is the direct engine call's."""

    #: scenario -> (database fixture, method, kwargs)
    SCENARIOS = {
        "plain": ("tiny_db", "run_q6", {}),  # shuffled: nothing prunes
        "pruned": ("sorted_db", "run_q6", {}),
        "all-pruned": ("shifted_db", "run_q6", {}),
        "routed": ("rollup_db", "run_groupby", {}),
        "declined": ("rollup_db", "run_q6", {}),
    }

    @pytest.fixture(scope="class")
    def pools(self):
        """One 2-worker pool per database, spawned on first use."""
        pools: dict = {}

        def get(db):
            if id(db) not in pools:  # the databases outlive the class
                pools[id(db)] = WorkerPool(db, n_workers=2)
            return pools[id(db)]

        yield get
        for pool in pools.values():
            pool.close()

    @pytest.mark.parametrize(
        "engine_cls",
        (TyperEngine, TectorwiseEngine, ColumnStoreEngine),
        ids=lambda cls: cls.name,
    )
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("finish", (True, False), ids=("finish", "partial"))
    @pytest.mark.parametrize("pooled", (False, True), ids=("inline", "pool"))
    def test_equals_direct_call(
        self, request, pools, pooled, finish, scenario, engine_cls
    ):
        fixture, method, kwargs = self.SCENARIOS[scenario]
        db = request.getfixturevalue(fixture)
        engine = engine_cls()
        method, items = normalized_call(engine, method, (), kwargs)
        result = run_call(
            db, engine, method, items,
            pool=pools(db) if pooled else None,
            finish=finish,
            executor="process" if pooled else "thread",
        )
        details = result.details
        if not finish:
            assert result.value is None and "partial" in details
            result = engine.merge_morsels(db, method, items, [result])
        direct = getattr(engine, method)(db, **dict(items))
        context = f"{engine.name} {scenario}"
        assert result.value == direct.value, context

        routed = scenario == "routed"
        if scenario in ("routed", "declined"):
            assert details["rollup"]["rollup_used"] is routed, context
        else:
            assert "rollup" not in details
        if scenario in ("pruned", "all-pruned"):
            assert details["pruning"]["morsels_pruned"] > 0, context
        if scenario == "all-pruned":
            assert details["pruning"]["morsels_scanned"] == 0, context
        if scenario == "plain":
            assert "pruning" not in details
        if not routed:
            assert result.work == direct.work, context
        if not routed or not finish:
            # A routed partial keeps the base-row count so cross-shard
            # sums equal the scan's; a routed finished result reports
            # the rollup rows it read.
            assert result.tuples == direct.tuples, context
        else:
            assert result.tuples == details["rollup"]["rows_read"], context


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
